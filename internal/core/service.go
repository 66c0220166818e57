package core

import (
	"fmt"
	"strings"
	"time"

	"cofs/internal/disk"
	"cofs/internal/lock"
	"cofs/internal/mdb"
	"cofs/internal/netsim"
	"cofs/internal/params"
	"cofs/internal/rpc"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// RootID is the virtual root directory's file id.
const RootID vfs.Ino = 1

// inodeRow is the metadata the service keeps per object (type, owner,
// permissions, times — section III-C). For regular files Size/Mtime are
// updated on writer close (close-to-open consistency); the service holds
// no block or placement information beyond a regular file's opaque
// underlying path, written once by its create and kept in the row, so
// every operation that needs it reads it with the attributes.
type inodeRow struct {
	ID     vfs.Ino
	Type   vfs.FileType
	Mode   uint32
	UID    uint32
	GID    uint32
	Nlink  int
	Size   int64
	Atime  time.Duration
	Mtime  time.Duration
	Ctime  time.Duration
	Target string // symlink
	Path   string // regular file: underlying path
}

func (r inodeRow) attr() vfs.Attr {
	return vfs.Attr{
		Ino: r.ID, Type: r.Type, Mode: r.Mode, UID: r.UID, GID: r.GID,
		Nlink: r.Nlink, Size: r.Size, Atime: r.Atime, Mtime: r.Mtime, Ctime: r.Ctime,
	}
}

// dentryKey identifies one name in one virtual directory.
type dentryKey struct {
	Parent vfs.Ino
	Name   string
}

// dentryRow is a directory entry. It repeats the key fields so the
// parent can drive a Mnesia-style secondary index: directory listings
// and emptiness checks hit the index instead of scanning the table. The
// child's type is denormalized into the entry (as on-disk file systems
// do in dirents) so the owning shard can type-check renames and removes
// without a cross-shard read; an object's type never changes.
type dentryRow struct {
	Parent vfs.Ino
	Name   string
	Child  vfs.Ino
	Type   vfs.FileType
}

// ServiceStats aggregates service-side counters.
type ServiceStats struct {
	Requests int64
	Creates  int64
	Lookups  int64
	Getattrs int64
	Updates  int64
	Removes  int64
	// PeerCalls counts shard-to-shard RPCs this shard coordinated
	// (always 0 on a single-shard deployment).
	PeerCalls int64
	// Revocations counts client lease recalls this shard issued
	// (always 0 unless COFSParams.AttrLease is set).
	Revocations int64
}

// Service is one COFS metadata shard: it owns the slice of the virtual
// hierarchy its cluster's shard map assigns it, in Mnesia-style tables
// backed by a local disk. A single-shard cluster is exactly the paper's
// centralized metadata service.
type Service struct {
	net  *netsim.Net
	host *netsim.Host
	cfg  params.COFSParams

	// cluster is the plane this shard belongs to; shardID its index.
	cluster *MDSCluster
	shardID int

	Disk *disk.Disk
	DB   *mdb.DB

	inodes   *mdb.Table[vfs.Ino, inodeRow]
	dentries *mdb.Table[dentryKey, dentryRow]

	// nextID allocates from this shard's stride: allocBase is the
	// smallest id of the stride and allocStride the step, so placement-
	// by-id is stable across restarts and never needs a lookup table.
	// At deploy time the stride is (shardID, N); a reshard re-points it
	// at the target placement — newborn ids above the migration's split
	// are born on the shard that will own them — and zeroes allocStride
	// on a shard the migration drains (it then delegates the inode half
	// of creates to an owning shard, createRemote).
	nextID      vfs.Ino
	allocBase   vfs.Ino
	allocStride vfs.Ino

	// leases tracks which client session holds a lease on which of this
	// shard's rows (nil unless COFSParams.AttrLease is set; see
	// lease.go).
	leases *leaseTable
	// recalls holds revokeLeases' idle victim buffers: a revoke takes
	// one and puts it back when its recalls are off the wire, so
	// overlapping revokes each reuse their own.
	recalls [][]*Session
	// peers are this shard's channels to the other shards of the plane
	// (two-phase protocol traffic), indexed by shard id; nil for self.
	peers []*rpc.Conn

	Stats ServiceStats
}

// newShard creates metadata shard shardID of cluster c on host, with its
// database on a freshly attached local disk (the paper used a 25 GB ext3
// volume per service node), traced from birth when the deployment
// traces, and enters it in c.built. Shard 0 bootstraps the root
// directory.
func newShard(net *netsim.Net, host *netsim.Host, cfg params.Config, c *MDSCluster, shardID int) *Service {
	env := net.Env()
	diskName := "cofs-mdb"
	if shardID > 0 {
		diskName = fmt.Sprintf("cofs-mdb%d", shardID)
	}
	d := disk.New(env, diskName, cfg.Disk)
	var db *mdb.DB
	if cfg.COFS.LogFlushInterval > 0 {
		db = mdb.NewAsync(env, d, cfg.COFS.DBOpTime, cfg.COFS.LogFlushInterval)
	} else {
		db = mdb.New(env, d, cfg.COFS.DBOpTime)
	}
	db.SetTrace(c.obs.tr, host.Name)
	base := firstID(shardID, c.lockShards)
	s := &Service{
		net:         net,
		host:        host,
		cfg:         cfg.COFS,
		cluster:     c,
		shardID:     shardID,
		Disk:        d,
		DB:          db,
		nextID:      base,
		allocBase:   base,
		allocStride: vfs.Ino(c.lockShards),
		leases:      newLeaseTable(cfg.COFS.AttrLease),
	}
	s.inodes = mdb.NewTable[vfs.Ino, inodeRow](db, "inode", mdb.DiscCopies)
	s.dentries = mdb.NewTable[dentryKey, dentryRow](db, "dentry", mdb.DiscCopies)
	s.dentries.AddIndex("parent", func(r dentryRow) uint64 { return uint64(r.Parent) }, byName)

	if shardID == 0 {
		// Bootstrap the root directory outside simulated time.
		s.inodes.Bootstrap(RootID, inodeRow{ID: RootID, Type: vfs.TypeDir, Mode: 0777, Nlink: 2})
	}
	c.built = append(c.built, s)
	return s
}

// firstID is the smallest allocatable id of a shard's stride (skipping
// the root, which shard 0 owns by bootstrap).
func firstID(shardID, shards int) vfs.Ino {
	if shards <= 1 {
		return RootID + 1
	}
	if shardID == 0 {
		return RootID + vfs.Ino(shards)
	}
	return RootID + vfs.Ino(shardID)
}

// sharded reports whether cross-shard coordination can be needed.
func (s *Service) sharded() bool { return len(s.cluster.shards) > 1 }

// owns reports whether this shard holds ino's inode row at the current
// shard-map epoch.
func (s *Service) owns(ino vfs.Ino) bool { return !s.sharded() || s.cluster.Of(ino) == s.shardID }

// claim verifies this shard owns the routing row of a request at the
// current epoch. A request routed by a map version that raced a live
// migration is bounced with ErrWrongEpoch — the cheap redirect the
// routing layer turns into a map refetch and retry. Free (and always
// nil) on a plane that never reshards.
func (s *Service) claim(ino vfs.Ino) error {
	if s.owns(ino) {
		return nil
	}
	s.cluster.rstats.Redirects++
	return ErrWrongEpoch
}

// peer returns the shard owning ino at the current epoch.
func (s *Service) peer(ino vfs.Ino) *Service { return s.cluster.shard(ino) }

// canAlloc reports whether this shard may allocate new ids (false on a
// shard a live shrink is draining).
func (s *Service) canAlloc() bool { return s.allocStride > 0 }

// allocID takes the next id from this shard's stride.
func (s *Service) allocID() vfs.Ino {
	id := s.nextID
	s.nextID += s.allocStride
	return id
}

// setAllocStride re-points the shard's allocator (Reshard): the next id
// is the smallest id of stride class (class, step) strictly above
// floor, so newborn ids never collide with anything allocated before
// the migration began. class == -1 disables allocation (a drained
// shard).
func (s *Service) setAllocStride(class, step int, floor vfs.Ino) {
	if class < 0 {
		s.allocStride = 0
		return
	}
	base := firstID(class, step) // smallest allocatable id with (id-1) mod step == class
	next := base
	if floor >= base {
		next = base + ((floor-base)/vfs.Ino(step)+1)*vfs.Ino(step)
	}
	s.allocBase = base
	s.allocStride = vfs.Ino(step)
	s.nextID = next
}

// Host returns the service node.
func (s *Service) Host() *netsim.Host { return s.host }

// call performs one client->service RPC through the session's channel
// to this shard, charging the full (transaction dispatch) service CPU.
func call[T any](p *sim.Proc, s *Service, sess *Session, op rpc.Op, req, resp int64, fn func(p *sim.Proc) T) T {
	return callCPU(p, s, sess, op, req, resp, s.cfg.ServiceCPUPerOp, fn)
}

// callRead is the dirty-read fast path: Mnesia dirty reads skip the
// transaction machinery, so the dispatch charge is much smaller.
func callRead[T any](p *sim.Proc, s *Service, sess *Session, op rpc.Op, req, resp int64, fn func(p *sim.Proc) T) T {
	return callCPU(p, s, sess, op, req, resp, s.cfg.ServiceCPUPerOp*3/4, fn)
}

func callCPU[T any](p *sim.Proc, s *Service, sess *Session, op rpc.Op, req, resp int64, cpu time.Duration, fn func(p *sim.Proc) T) T {
	s.Stats.Requests++
	var out T
	sess.conns[s.shardID].Call(p, rpc.Request{
		Op: op, ReqBytes: req, CPU: cpu, RespFixed: resp,
		Run: func(p *sim.Proc) { out = fn(p) },
	})
	return out
}

// callDyn is callCPU with the response size computed from the handler's
// result (directory listings).
func callDyn[T any](p *sim.Proc, s *Service, sess *Session, op rpc.Op, req int64, cpu time.Duration, fn func(p *sim.Proc) T, resp func(T) int64) T {
	s.Stats.Requests++
	var out T
	sess.conns[s.shardID].Call(p, rpc.Request{
		Op: op, ReqBytes: req, CPU: cpu,
		Run:       func(p *sim.Proc) { out = fn(p) },
		RespBytes: func() int64 { return resp(out) },
	})
	return out
}

// peerCall performs one shard-to-shard RPC of the cross-shard protocol
// over the coordinator's channel to the participant, charging transfer
// costs plus the participant's dispatch CPU. The coordinator's
// scheduler thread is released while the remote call is in flight (an
// Erlang-style non-blocking server), so opposed cross-shard operations
// cannot deadlock the two worker pools. When the participant is the
// coordinator itself the body runs inline: no RPC, no extra dispatch
// charge.
func peerCall[T any](p *sim.Proc, from, to *Service, req, resp int64, cpu time.Duration, fn func(p *sim.Proc) T) T {
	if from == to {
		return fn(p)
	}
	from.Stats.PeerCalls++
	from.host.CPU.Release(p)
	var out T
	from.peers[to.shardID].Call(p, rpc.Request{
		Op: rpc.OpPeer, ReqBytes: req, CPU: cpu, RespFixed: resp,
		Run: func(p *sim.Proc) { out = fn(p) },
	})
	from.host.CPU.Acquire(p)
	return out
}

type attrReply struct {
	attr vfs.Attr
	err  error
}

// missErr maps a missing row to the right error at the current epoch:
// when the row's group is no longer owned here it did not die — it
// migrated mid-request — and the caller must be redirected instead of
// told the row is gone (the "no client ever observes a missing row"
// half of the resharding contract). Otherwise fallback stands.
func (s *Service) missErr(ino vfs.Ino, fallback error) error {
	if !s.owns(ino) {
		s.cluster.rstats.Redirects++
		return ErrWrongEpoch
	}
	return fallback
}

// Lookup resolves (parent, name) and returns the child's attributes.
// With leases enabled a successful resolution grants the caller a
// dentry + attribute lease, and a clean miss grants a negative dentry.
func (s *Service) Lookup(p *sim.Proc, sess *Session, parent vfs.Ino, name string) (vfs.Attr, error) {
	s.Stats.Lookups++
	r := callRead(p, s, sess, rpc.OpLookup, 128, 192, func(p *sim.Proc) attrReply {
		if err := s.claim(parent); err != nil {
			return attrReply{err: err}
		}
		de, ok := mdb.DirtyGet(p, s.dentries, dentryKey{Parent: parent, Name: name})
		if !ok {
			// The parent's inode is always co-located with its dentries
			// (both place by the parent's id), so this read is local —
			// unless the parent's group migrated between the claim above
			// and this read, in which case the miss means "moved", not
			// "absent", and the client is redirected.
			if err := s.missErr(parent, nil); err != nil {
				return attrReply{err: err}
			}
			din, dirOK := mdb.DirtyGet(p, s.inodes, parent)
			if dirOK && din.Type != vfs.TypeDir {
				return attrReply{err: vfs.ErrNotDir}
			}
			if dirOK {
				s.grantNegative(p, sess, parent, name)
			}
			return attrReply{err: vfs.ErrNotExist}
		}
		if !s.owns(de.Child) {
			// The child's inode lives on another shard: one extra hop
			// (a directory placed elsewhere, or a file renamed in).
			r := s.peerGetattr(p, sess, de.Child)
			if r.err == nil {
				s.grantDentry(p, sess, parent, name, de.Child)
			}
			return r
		}
		row, ok := mdb.DirtyGet(p, s.inodes, de.Child)
		if !ok {
			if !s.owns(de.Child) {
				// The child's group migrated mid-lookup: finish at its
				// new owner instead of reporting a missing row.
				r := s.peerGetattr(p, sess, de.Child)
				if r.err == nil {
					s.grantDentry(p, sess, parent, name, de.Child)
				}
				return r
			}
			return attrReply{err: vfs.ErrNotExist}
		}
		s.grantDentry(p, sess, parent, name, de.Child)
		s.grantAttr(p, sess, de.Child, "")
		return attrReply{attr: row.attr()}
	})
	return r.attr, r.err
}

// Getattr returns the attributes of id.
func (s *Service) Getattr(p *sim.Proc, sess *Session, id vfs.Ino) (vfs.Attr, error) {
	s.Stats.Getattrs++
	r := callRead(p, s, sess, rpc.OpGetattr, 96, 192, func(p *sim.Proc) attrReply {
		if err := s.claim(id); err != nil {
			return attrReply{err: err}
		}
		row, ok := mdb.DirtyGet(p, s.inodes, id)
		if !ok {
			return attrReply{err: s.missErr(id, vfs.ErrNotExist)}
		}
		s.grantAttr(p, sess, id, "")
		return attrReply{attr: row.attr()}
	})
	return r.attr, r.err
}

// Setattr updates attributes of id (chmod/chown/utime/truncate record).
// A truncation of a regular file also returns its underlying path, which
// the client truncates next; the path rides in the row the update reads.
func (s *Service) Setattr(p *sim.Proc, sess *Session, ctx vfs.Ctx, id vfs.Ino, set vfs.SetAttr) (vfs.Attr, string, error) {
	s.Stats.Updates++
	return s.updateRow(p, sess, rpc.OpSetattr, id, set.HasSize, func(row inodeRow) (inodeRow, error) {
		if set.HasMode && ctx.UID != 0 && ctx.UID != row.UID {
			return row, vfs.ErrPerm
		}
		// POSIX: only root may change ownership.
		if set.HasOwner && ctx.UID != 0 {
			return row, vfs.ErrPerm
		}
		if set.HasMode {
			row.Mode = set.Mode
		}
		if set.HasOwner {
			row.UID, row.GID = set.UID, set.GID
		}
		if set.HasSize && row.Type == vfs.TypeRegular {
			row.Size = set.Size
		}
		if set.HasTimes {
			row.Atime, row.Mtime = set.Atime, set.Mtime
		}
		row.Ctime = p.Now()
		return row, nil
	})
}

// updateRow replaces id's row with fn's update of it in a durable
// transaction. On success other holders' attribute leases on id are
// recalled and the mutating session is granted a fresh one. With mapping
// set, the reply also carries a regular file's underlying path. The row
// passes through fn by value: a pointer handed to a func value would move
// every update's row to the heap.
func (s *Service) updateRow(p *sim.Proc, sess *Session, op rpc.Op, id vfs.Ino, mapping bool, fn func(inodeRow) (inodeRow, error)) (vfs.Attr, string, error) {
	r := call(p, s, sess, op, 160, 192, func(p *sim.Proc) mappingReply {
		// The row's Shared lock keeps a live migration (which takes the
		// group Exclusive) from moving it out from under the update
		// transaction; free when uncontended, no-op on an unsharded
		// plane. Shared suffices: the write itself is atomic inside the
		// serialized transaction below, like the parent-row bumps of
		// Create (docs/transactions.md).
		txn := s.lockRows(p, lock.S(s.inoKey(id)))
		defer txn.release(p)
		if err := s.claim(id); err != nil {
			return mappingReply{err: err}
		}
		var out mappingReply
		s.DB.Transaction(p, func(tx *mdb.Tx) {
			if s.staleProtocol(txn) {
				out.err = ErrWrongEpoch
				return
			}
			row, ok := mdb.Get(tx, s.inodes, id)
			if !ok {
				out.err = s.missErr(id, vfs.ErrNotExist)
				return
			}
			row, err := fn(row)
			if err != nil {
				out.err = err
				return
			}
			mdb.Put(tx, s.inodes, id, row)
			out.attr = row.attr()
			if mapping {
				out.upath = row.Path
			}
		})
		if out.err == nil {
			s.revokeLeases(p, sess, attrLease(id))
			s.grantAttr(p, sess, id, out.upath)
		}
		return out
	})
	return r.attr, r.upath, r.err
}

// dirRow loads parent and verifies it is a directory the caller may
// modify. Runs inside a transaction.
func (s *Service) dirRow(tx *mdb.Tx, ctx vfs.Ctx, parent vfs.Ino, wantWrite bool) (inodeRow, error) {
	din, ok := mdb.Get(tx, s.inodes, parent)
	if !ok {
		return inodeRow{}, vfs.ErrNotExist
	}
	if din.Type != vfs.TypeDir {
		return inodeRow{}, vfs.ErrNotDir
	}
	bit := uint32(4)
	if wantWrite {
		bit = 2
	}
	if !canAccess(ctx, din.UID, din.GID, din.Mode, bit) {
		return inodeRow{}, vfs.ErrPerm
	}
	return din, nil
}

func canAccess(ctx vfs.Ctx, uid, gid, mode, bit uint32) bool {
	if ctx.UID == 0 {
		return true
	}
	switch {
	case ctx.UID == uid:
		return mode&(bit<<6) != 0
	case ctx.GID == gid:
		return mode&(bit<<3) != 0
	default:
		return mode&bit != 0
	}
}

// allocSite returns the shard that allocates (and therefore owns) a new
// object's inode row. Directories place by the current map's DirTarget
// (hashed over the target shard count, so a mid-migration mkdir lands
// straight in the post-migration layout). Files and symlinks allocate
// on the coordinator itself — the paper's local-commit fast path —
// unless a live shrink has drained this shard's allocator, in which
// case they fall to a deterministic owning shard of the target layout.
func (s *Service) allocSite(t vfs.FileType, parent vfs.Ino, name string) *Service {
	if t == vfs.TypeDir {
		return s.cluster.shards[s.cluster.dirTarget(parent, name)]
	}
	if s.canAlloc() {
		return s
	}
	return s.cluster.shards[s.shardID%s.cluster.Maps.Current().Target()]
}

// Create allocates a new object of the given type under parent. For
// regular files, upath is the underlying path the client named (its
// placement driver's bucket plus a name unique to the client, which is
// creating the object while this commit is in flight): the service
// records it verbatim in the new inode row. The transaction commits
// durably (the service's ext3-backed log, group-committed across
// clients).
func (s *Service) Create(p *sim.Proc, sess *Session, ctx vfs.Ctx, parent vfs.Ino, name string, t vfs.FileType, mode uint32, upath, target string) (vfs.Attr, error) {
	s.Stats.Creates++
	// New files and symlinks allocate from this shard's stride, so the
	// whole create commits locally. New directories place by the shard
	// map's DirTarget; when that is a different shard — or when a live
	// shrink has drained this shard's allocator — the inode half of the
	// create runs at the allocating shard under the two-phase protocol.
	if s.sharded() {
		if ts := s.allocSite(t, parent, name); ts != s {
			return s.createRemote(p, sess, ctx, parent, name, t, mode, upath, target, ts)
		}
	}
	r := call(p, s, sess, rpc.OpCreate, 256, 192, func(p *sim.Proc) attrReply {
		var out attrReply
		// The create commits in one local transaction, but on a sharded
		// plane it must still respect the row locks of in-flight
		// cross-shard mutations — an rmdir freezing this directory's
		// emptiness, a rename swapping this name — so it locks the same
		// footprint they would conflict on (no-op on one shard, free
		// when uncontended; see txnlock.go). The dentry it writes is
		// Exclusive; the parent's inode row only Shared — its
		// nlink/mtime bump is atomic inside the transaction below, so
		// concurrent creates of different names in this directory
		// overlap instead of serializing on the parent.
		txn := s.lockRows(p, lock.X(s.dentKey(parent, name)), lock.S(s.inoKey(parent)))
		defer txn.release(p)
		if err := s.claim(parent); err != nil {
			out.err = err
			return out
		}
		if !s.canAlloc() {
			// A shrink began while this request was in flight and
			// drained the allocator: redirect — the retry re-routes
			// through allocSite and takes the remote-create path.
			s.cluster.rstats.Redirects++
			out.err = ErrWrongEpoch
			return out
		}
		s.DB.Transaction(p, func(tx *mdb.Tx) {
			if s.staleProtocol(txn) {
				out.err = ErrWrongEpoch
				return
			}
			din, err := s.dirRow(tx, ctx, parent, true)
			if err != nil {
				out.err = err
				return
			}
			key := dentryKey{Parent: parent, Name: name}
			if _, exists := mdb.Get(tx, s.dentries, key); exists {
				out.err = vfs.ErrExist
				return
			}
			id := s.allocID()
			row := inodeRow{
				ID: id, Type: t, Mode: mode, UID: ctx.UID, GID: ctx.GID,
				Nlink: 1, Mtime: p.Now(), Ctime: p.Now(), Target: target, Path: upath,
			}
			if t == vfs.TypeDir {
				row.Nlink = 2
				din.Nlink++
			}
			if t == vfs.TypeSymlink {
				row.Size = int64(len(target))
			}
			din.Mtime = p.Now()
			mdb.Put(tx, s.inodes, id, row)
			mdb.Put(tx, s.dentries, key, dentryRow{Parent: parent, Name: name, Child: id, Type: t})
			mdb.Put(tx, s.inodes, parent, din)
			out.attr = row.attr()
		})
		if out.err == nil {
			// Kill other nodes' negative dentries for the new name (and
			// their parent attributes — its mtime/nlink changed), then
			// lease the new object to its creator.
			s.revokeLeases(p, sess, dentLease(parent, name), attrLease(parent))
			s.grantDentry(p, sess, parent, name, out.attr.Ino)
			s.grantAttr(p, sess, out.attr.Ino, upath)
		}
		return out
	})
	return r.attr, r.err
}

// Readlink returns a symlink's target.
func (s *Service) Readlink(p *sim.Proc, sess *Session, id vfs.Ino) (string, error) {
	type reply struct {
		target string
		err    error
	}
	r := callRead(p, s, sess, rpc.OpReadlink, 96, 256, func(p *sim.Proc) reply {
		if err := s.claim(id); err != nil {
			return reply{err: err}
		}
		row, ok := mdb.DirtyGet(p, s.inodes, id)
		if !ok {
			return reply{err: s.missErr(id, vfs.ErrNotExist)}
		}
		if row.Type != vfs.TypeSymlink {
			return reply{err: vfs.ErrInvalid}
		}
		return reply{target: row.Target}
	})
	return r.target, r.err
}

type mappingReply struct {
	attr  vfs.Attr
	upath string
	err   error
}

// OpenInfo returns the attributes and underlying path of a regular file
// in one round trip and one row read (used by open).
func (s *Service) OpenInfo(p *sim.Proc, sess *Session, id vfs.Ino) (vfs.Attr, string, error) {
	r := callRead(p, s, sess, rpc.OpOpenInfo, 96, 256, func(p *sim.Proc) mappingReply {
		if err := s.claim(id); err != nil {
			return mappingReply{err: err}
		}
		row, ok := mdb.DirtyGet(p, s.inodes, id)
		if !ok {
			return mappingReply{err: s.missErr(id, vfs.ErrNotExist)}
		}
		s.grantAttr(p, sess, id, row.Path)
		return mappingReply{attr: row.attr(), upath: row.Path}
	})
	return r.attr, r.upath, r.err
}

type removeReply struct {
	upath   string
	id      vfs.Ino
	removed bool
	isDir   bool
	err     error
}

// Remove unlinks (parent, name). It returns the id of the affected
// object (so client caches can invalidate it) and, for regular files
// whose last link went away, the underlying path to delete; rmdir
// requires an empty directory. A want other than 0 removes the name
// only while it names want, and is ErrNotExist otherwise: a client
// taking back its own create (FS.undoCreate) must not remove a file
// renamed onto the name since.
func (s *Service) Remove(p *sim.Proc, sess *Session, ctx vfs.Ctx, parent vfs.Ino, name string, rmdir bool, want vfs.Ino) (string, vfs.Ino, error) {
	s.Stats.Removes++
	if s.sharded() {
		return s.removeSharded(p, sess, ctx, parent, name, rmdir, want)
	}
	r := call(p, s, sess, rpc.OpRemove, 160, 128, func(p *sim.Proc) removeReply {
		var out removeReply
		// The claim is free on a plane that never grows; on one racing
		// its first grow it keeps a request dispatched down this
		// single-shard path from reporting migrated rows as missing.
		if err := s.claim(parent); err != nil {
			return removeReply{err: err}
		}
		s.DB.Transaction(p, func(tx *mdb.Tx) {
			if s.staleProtocol(nil) {
				out.err = ErrWrongEpoch
				return
			}
			din, err := s.dirRow(tx, ctx, parent, true)
			if err != nil {
				out.err = err
				return
			}
			key := dentryKey{Parent: parent, Name: name}
			de, ok := mdb.Get(tx, s.dentries, key)
			if !ok || want != 0 && de.Child != want {
				out.err = vfs.ErrNotExist
				return
			}
			id := de.Child
			out.id = id
			row, rowOK := mdb.Get(tx, s.inodes, id)
			if !rowOK {
				if out.err = s.missErr(id, nil); out.err != nil {
					return
				}
			}
			if rmdir {
				if row.Type != vfs.TypeDir {
					out.err = vfs.ErrNotDir
					return
				}
				if mdb.IndexRead(tx, s.dentries, "parent", uint64(id)).Len() > 0 {
					out.err = vfs.ErrNotEmpty
					return
				}
				din.Nlink--
				mdb.Delete(tx, s.inodes, id)
				mdb.Delete(tx, s.dentries, key)
				mdb.Put(tx, s.inodes, parent, din)
				out.isDir = true
				return
			}
			if row.Type == vfs.TypeDir {
				out.err = vfs.ErrIsDir
				return
			}
			mdb.Delete(tx, s.dentries, key)
			row.Nlink--
			din.Mtime = p.Now()
			mdb.Put(tx, s.inodes, parent, din)
			if row.Nlink <= 0 {
				out.upath = row.Path
				out.removed = true
				mdb.Delete(tx, s.inodes, id)
			} else {
				mdb.Put(tx, s.inodes, id, row)
			}
		})
		if out.err == nil {
			s.revokeLeases(p, sess, dentLease(parent, name), attrLease(out.id), attrLease(parent))
		}
		return out
	})
	return r.upath, r.id, r.err
}

// Rename moves (srcDir, srcName) to (dstDir, dstName), replacing a
// compatible target. The underlying path is untouched: renames never
// reach the underlying file system. It returns the id of a replaced
// target (0 if none) for client cache invalidation, plus the underlying
// path to delete when the replaced file's last link went away. The
// reply leases the destination name to the renamer, as a create's
// leases the new name to its creator.
func (s *Service) Rename(p *sim.Proc, sess *Session, ctx vfs.Ctx, srcDir vfs.Ino, srcName string, dstDir vfs.Ino, dstName string) (string, vfs.Ino, error) {
	if s.sharded() {
		return s.renameSharded(p, sess, ctx, srcDir, srcName, dstDir, dstName)
	}
	r := call(p, s, sess, rpc.OpRename, 224, 128, func(p *sim.Proc) removeReply {
		var out removeReply
		var moved vfs.Ino // set once the rename mutates
		// See Remove above: free claims that turn migrated-row misses
		// into redirects when this single-shard path races a grow.
		if err := s.claim(srcDir); err != nil {
			return removeReply{err: err}
		}
		s.DB.Transaction(p, func(tx *mdb.Tx) {
			if s.staleProtocol(nil) {
				out.err = ErrWrongEpoch
				return
			}
			sd, err := s.dirRow(tx, ctx, srcDir, true)
			if err != nil {
				out.err = err
				return
			}
			dd, err := s.dirRow(tx, ctx, dstDir, true)
			if err != nil {
				if err == vfs.ErrNotExist {
					err = s.missErr(dstDir, err)
				}
				out.err = err
				return
			}
			srcKey := dentryKey{Parent: srcDir, Name: srcName}
			srcDe, ok := mdb.Get(tx, s.dentries, srcKey)
			if !ok {
				out.err = vfs.ErrNotExist
				return
			}
			id := srcDe.Child
			if dstName == "" || len(dstName) > vfs.MaxNameLen {
				out.err = vfs.ErrInvalid
				return
			}
			moving, movingOK := mdb.Get(tx, s.inodes, id)
			if !movingOK {
				if out.err = s.missErr(id, nil); out.err != nil {
					return
				}
			}
			dstKey := dentryKey{Parent: dstDir, Name: dstName}
			if dstDe, ok := mdb.Get(tx, s.dentries, dstKey); ok {
				existing := dstDe.Child
				if existing == id {
					// POSIX no-op: same object under both names.
					return
				}
				out.id = existing
				tgt, tgtOK := mdb.Get(tx, s.inodes, existing)
				if !tgtOK {
					if out.err = s.missErr(existing, nil); out.err != nil {
						return
					}
				}
				if tgt.Type == vfs.TypeDir {
					if moving.Type != vfs.TypeDir {
						out.err = vfs.ErrIsDir
						return
					}
					if mdb.IndexRead(tx, s.dentries, "parent", uint64(existing)).Len() > 0 {
						out.err = vfs.ErrNotEmpty
						return
					}
					dd.Nlink--
					if srcDir == dstDir {
						// sd and dd are value copies of the same row and
						// only sd is written back below: mirror the
						// replaced subdirectory's link drop there too.
						sd.Nlink--
					}
					mdb.Delete(tx, s.inodes, existing)
				} else {
					if moving.Type == vfs.TypeDir {
						out.err = vfs.ErrNotDir
						return
					}
					tgt.Nlink--
					if tgt.Nlink <= 0 {
						out.upath = tgt.Path
						out.removed = true
						mdb.Delete(tx, s.inodes, existing)
					} else {
						mdb.Put(tx, s.inodes, existing, tgt)
					}
				}
			}
			moved = id
			mdb.Delete(tx, s.dentries, srcKey)
			mdb.Put(tx, s.dentries, dstKey, dentryRow{Parent: dstDir, Name: dstName, Child: id, Type: moving.Type})
			if moving.Type == vfs.TypeDir && srcDir != dstDir {
				sd.Nlink--
				dd.Nlink++
			}
			sd.Mtime = p.Now()
			dd.Mtime = p.Now()
			mdb.Put(tx, s.inodes, srcDir, sd)
			if srcDir != dstDir {
				mdb.Put(tx, s.inodes, dstDir, dd)
			}
		})
		if out.err == nil && moved != 0 {
			keys := []leaseKey{
				dentLease(srcDir, srcName), dentLease(dstDir, dstName),
				attrLease(srcDir), attrLease(dstDir),
			}
			if out.id != 0 {
				keys = append(keys, attrLease(out.id))
			}
			s.revokeLeases(p, sess, keys...)
			s.grantDentry(p, sess, dstDir, dstName, moved)
		}
		return out
	})
	return r.upath, r.id, r.err
}

// Link adds a hard link to id at (parent, name).
func (s *Service) Link(p *sim.Proc, sess *Session, ctx vfs.Ctx, id vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	if s.sharded() && !s.owns(id) {
		return s.linkRemote(p, sess, ctx, id, parent, name)
	}
	r := call(p, s, sess, rpc.OpLink, 160, 192, func(p *sim.Proc) attrReply {
		var out attrReply
		// Same discipline as Create above: the link commits locally but
		// locks the rows cross-shard mutations would conflict on — here
		// including the target inode, Shared: the link's own nlink bump
		// is atomic inside the transaction below, and Shared already
		// excludes the Exclusive holders (a sharded remove reclaiming
		// the target, a rename replacing it) whose cross-phase gaps the
		// target row must not move under.
		txn := s.lockRows(p, lock.X(s.dentKey(parent, name)), lock.S(s.inoKey(parent)), lock.S(s.inoKey(id)))
		defer txn.release(p)
		if err := s.claim(parent); err != nil {
			out.err = err
			return out
		}
		s.DB.Transaction(p, func(tx *mdb.Tx) {
			if s.staleProtocol(txn) {
				out.err = ErrWrongEpoch
				return
			}
			din, err := s.dirRow(tx, ctx, parent, true)
			if err != nil {
				out.err = err
				return
			}
			row, ok := mdb.Get(tx, s.inodes, id)
			if !ok {
				// The target may have migrated between the client-side
				// ownership check and this body: redirect, the retry
				// re-routes through linkRemote.
				out.err = s.missErr(id, vfs.ErrNotExist)
				return
			}
			if row.Type == vfs.TypeDir {
				out.err = vfs.ErrIsDir
				return
			}
			key := dentryKey{Parent: parent, Name: name}
			if _, exists := mdb.Get(tx, s.dentries, key); exists {
				out.err = vfs.ErrExist
				return
			}
			row.Nlink++
			din.Mtime = p.Now()
			mdb.Put(tx, s.inodes, id, row)
			mdb.Put(tx, s.dentries, key, dentryRow{Parent: parent, Name: name, Child: id, Type: row.Type})
			mdb.Put(tx, s.inodes, parent, din)
			out.attr = row.attr()
		})
		if out.err == nil {
			s.revokeLeases(p, sess, dentLease(parent, name), attrLease(id), attrLease(parent))
			s.grantDentry(p, sess, parent, name, id)
			s.grantAttr(p, sess, id, "")
		}
		return out
	})
	return r.attr, r.err
}

type readdirReply struct {
	entries []vfs.DirEntry
	attrs   []vfs.Attr
	err     error
}

// readdir is the one listing body. Names-only (plus false) it returns
// the directory's names, ids and types — the type is denormalized into
// the dentry — and touches nothing else: no child inode row, no peer
// shard, no new lease. With plus it also returns every entry's
// attributes in the same response (NFSv3 READDIRPLUS style) and leases
// them and their dentries to the caller, so one RPC serves a whole
// `ls -l`; the client asks for that only when it sees a process stat
// what it lists (see FS.Readdir). Either kind rides a lease the caller
// already holds on the directory's attributes: the listing is installed
// in its cache (grantListing), so its repeats cost no round trip. The
// response transfer cost scales with the number of entries, 64 bytes
// each names-only and 160 with attributes.
//
// The listing — the directory's own row, its dentries off the parent
// index and, with plus, the attributes of every child whose inode row
// lives here — is one snapshot read (mdb.DB.View) taken at the instant
// of the ownership claim: it holds exactly the names the directory had
// at that instant, waits for no writer and makes none wait. Children
// whose inode rows live on other shards (subdirectories placed
// elsewhere, files renamed in) are then fetched in one batched dirty
// read per remote shard. Like the attributes a client would otherwise
// stat one by one, the remote rows are not read in the listing's
// snapshot.
func (s *Service) readdir(p *sim.Proc, sess *Session, ctx vfs.Ctx, dir vfs.Ino, plus bool) ([]vfs.DirEntry, []vfs.Attr, error) {
	r := callDyn(p, s, sess, rpc.OpReaddir, 96, s.cfg.ServiceCPUPerOp, func(p *sim.Proc) readdirReply {
		var out readdirReply
		if err := s.claim(dir); err != nil {
			return readdirReply{err: err}
		}
		var remote [][]int // shard id -> indexes of the entries it owns
		s.DB.View(p, func(tx *mdb.Tx) {
			din, err := s.dirRow(tx, ctx, dir, false)
			if err != nil {
				out.err = err
				return
			}
			out.entries = listDentries(tx, s.dentries, dir)
			s.grantListing(p, sess, din, out.entries)
			if !plus {
				return
			}
			out.attrs = make([]vfs.Attr, 0, len(out.entries))
			for _, e := range out.entries {
				var attr vfs.Attr
				if s.owns(e.Ino) {
					row, _ := mdb.Get(tx, s.inodes, e.Ino)
					attr = row.attr()
				} else {
					remote = addRemote(remote, s.cluster.Of(e.Ino), len(out.attrs))
				}
				out.attrs = append(out.attrs, attr)
			}
		})
		for i, attr := range out.attrs {
			if attr.Ino == 0 {
				continue // remote row, granted below by its owner
			}
			e := out.entries[i]
			s.grantDentry(p, sess, dir, e.Name, e.Ino)
			s.grantAttr(p, sess, e.Ino, "")
		}
		// Entries whose row migrated between the listing and its shard's
		// batched read come back marked moved and are re-resolved at the
		// current owner on the next round (server-side redirect chasing,
		// like peerGetattr): a live row is never reported attribute-less
		// just because it changed shards mid-listing.
		for remote != nil {
			var next [][]int
			for sh, idxs := range remote {
				if len(idxs) == 0 {
					continue
				}
				ts := s.cluster.shards[sh]
				type batchReply struct {
					attrs []vfs.Attr
					moved []int
				}
				br := peerCall(p, s, ts, int64(96+16*len(idxs)), int64(32+160*len(idxs)),
					ts.cfg.ServiceCPUPerOp*3/4, func(p *sim.Proc) batchReply {
						res := batchReply{attrs: make([]vfs.Attr, len(idxs))}
						for j, i := range idxs {
							ino := out.entries[i].Ino
							if row, ok := mdb.DirtyGet(p, ts.inodes, ino); ok {
								res.attrs[j] = row.attr()
								ts.grantAttr(p, sess, ino, "")
							} else if !ts.owns(ino) {
								res.moved = append(res.moved, i)
							}
						}
						return res
					})
				for j, i := range idxs {
					out.attrs[i] = br.attrs[j]
					if br.attrs[j].Ino != 0 {
						s.grantDentry(p, sess, dir, out.entries[i].Name, out.entries[i].Ino)
					}
				}
				for _, i := range br.moved {
					next = addRemote(next, s.cluster.Of(out.entries[i].Ino), i)
				}
			}
			remote = next
		}
		return out
	}, func(r readdirReply) int64 { return listingBytes(len(r.entries), plus) })
	return r.entries, r.attrs, r.err
}

// listingBytes is the size of a listing reply: a name, id and type per
// entry, plus its attributes when the listing carries them.
func listingBytes(entries int, plus bool) int64 {
	perEntry := int64(64)
	if plus {
		perEntry = 160
	}
	return 96 + int64(entries)*perEntry
}

// byName is the parent index's row order: names are unique within a
// directory, so it is total within each bucket.
func byName(a, b dentryRow) int { return strings.Compare(a.Name, b.Name) }

// listDentries reads dir's entries inside a snapshot: one index read of
// the dentry rows off the parent index, whatever the directory's size,
// in the index's name order.
func listDentries(tx *mdb.Tx, dentries *mdb.Table[dentryKey, dentryRow], dir vfs.Ino) []vfs.DirEntry {
	rows := mdb.IndexRead(tx, dentries, "parent", uint64(dir))
	ents := make([]vfs.DirEntry, 0, rows.Len())
	for de := range rows.All() {
		ents = append(ents, vfs.DirEntry{Name: de.Name, Ino: de.Child, Type: de.Type})
	}
	return ents
}

// addRemote records entry index i under shard sh in a per-shard index
// list, growing it on demand (a live reshard can add shards between two
// rounds of a listing).
func addRemote(remote [][]int, sh, i int) [][]int {
	for len(remote) <= sh {
		remote = append(remote, nil)
	}
	remote[sh] = append(remote[sh], i)
	return remote
}

// WriteBack records a writer's size/mtime at close (close-to-open
// consistency for attributes the service serves from its tables).
func (s *Service) WriteBack(p *sim.Proc, sess *Session, id vfs.Ino, size int64, mtime time.Duration) error {
	s.Stats.Updates++
	_, _, err := s.updateRow(p, sess, rpc.OpWriteBack, id, false, func(row inodeRow) (inodeRow, error) {
		if row.Type != vfs.TypeRegular {
			return row, vfs.ErrInvalid
		}
		row.Size = size
		row.Mtime = mtime
		return row, nil
	})
	return err
}

// CountObjects returns (files, dirs) for StatFS.
func (s *Service) CountObjects(p *sim.Proc, sess *Session) (int64, int64) {
	type counts struct{ files, dirs int64 }
	r := call(p, s, sess, rpc.OpStatFS, 64, 128, func(p *sim.Proc) counts {
		var out counts
		s.DB.View(p, func(tx *mdb.Tx) {
			for _, row := range mdb.Select(tx, s.inodes, func(k vfs.Ino, v inodeRow) bool { return true }) {
				out.files++
				if row.Type == vfs.TypeDir {
					out.dirs++
				}
			}
		})
		return out
	})
	return r.files, r.dirs
}

// CheckInvariants for the whole metadata plane lives on MDSCluster (see
// mds.go): with sharding, dentry references and inode rows can live on
// different shards, so referential integrity is a cluster-wide property.
