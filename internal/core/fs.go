package core

import (
	"math/rand"
	"slices"

	"cofs/internal/lru"
	"cofs/internal/netsim"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// FS is the per-node COFS layer: it implements vfs.Filesystem so it can
// be mounted (through the FUSE cost model) exactly like the bare file
// system. Metadata operations become service RPCs; data operations pass
// through to the underlying file system at the placement-mapped path.
type FS struct {
	svc  *MDSCluster
	host *netsim.Host
	// sess is this client's connection to the metadata plane: one RPC
	// channel per shard (see internal/rpc and session.go). All metadata
	// traffic flows through it.
	sess  *Session
	node  int
	under *vfs.Mount // the underlying (GPFS-like) file system, bare-mounted
	place Placement
	cfg   params.COFSParams
	rng   *rand.Rand

	// buckets tracks per-bucket fill so the MaxEntriesPerDir cap can
	// spill to a fresh generation. The counts are this client's own:
	// the hash includes the node but is taken mod Fanout, so two nodes
	// can land in one bucket, which then holds up to the cap from each
	// (see the package comment in placement.go).
	buckets map[string]*bucketState
	// installed holds the underlying directories Deploy pre-created
	// (Placement.InitDirs); the deployment's clients share it, read-only.
	// madeDirs holds the ones this client has created since.
	installed map[string]bool
	madeDirs  map[string]bool
	// names names this client's new underlying objects (objectPath).
	names objectNamer
	// commits is the pool of idle name-commit jobs (object.go).
	commits []*nameCommit

	// handles maps the open handles to their state; idle holds released
	// states for the next open to reuse. Handle ids are never reused, so a
	// stale id finds nothing even when its state serves another file.
	handles map[vfs.Handle]*cofsHandle
	idle    []*cofsHandle
	nextH   vfs.Handle

	// attrs is the optional client-side attribute/dentry cache
	// (section IV-B future work; see attrcache.go). The metadata shards
	// install and recall its entries.
	attrs *clientCache
	// listed and advised carry the attributes-on-demand rule (see
	// Readdir): what each process's last listing returned first and
	// second, and the directories whose next listing should bring
	// attributes along. Both stay empty while the cache is disabled;
	// advised is bounded like the cache it feeds, listed by the
	// processes of the node.
	listed  map[int]listing
	advised *lru.Cache[vfs.Ino, struct{}]
	// ahead holds the directories whose statahead is in flight, each with
	// the condition the node's other stataheads of it wait on.
	ahead map[vfs.Ino]*sim.Cond

	// removing holds one slot per underlying removal in flight (its
	// Acquires count the removals, its Contended the unlinks that waited
	// for a slot; DrainRemovals waits for it to fall idle), and
	// removals is the pool of idle removal jobs (removal.go).
	removing *sim.Resource
	removals []*removal

	Stats FSStats
}

// listing is what FS remembers of a process's last listing of two or
// more entries: the directory, the two entries it returned first, and
// whether the process has stat-ed the first of them (armed).
type listing struct {
	dir   vfs.Ino
	ino   [2]vfs.Ino
	name  [2]string
	armed bool
}

// names reports whether a stat of ino (Getattr) or of (dir, name)
// (Lookup) targets the listing's i-th entry.
func (l *listing) names(i int, ino, dir vfs.Ino, name string) bool {
	return l.ino[i] == ino || (l.dir == dir && l.name[i] == name)
}

// FSStats aggregates client-side COFS counters.
type FSStats struct {
	ServiceOps       int64
	UnderCreates     int64
	UnderOpens       int64
	BucketSpills     int64
	WriteBacks       int64
	LazyOpensSkipped int64
	// PlusListings counts listings fetched with attributes, Stataheads
	// the ones among them issued from inside a stat (see Readdir).
	PlusListings int64
	Stataheads   int64
	// RemovalFailures counts background removals whose underlying
	// unlink failed with anything but ErrNotExist (removal.go).
	RemovalFailures int64
}

type bucketState struct {
	gen   int
	count int
}

type cofsHandle struct {
	id    vfs.Ino
	flags vfs.OpenFlags
	upath string
	file  vfs.File // underlying open file, opened lazily on first I/O
	wrote bool
	size  int64
	ctx   vfs.Ctx
	// users counts the reads, writes and fsyncs in progress on the
	// handle; a Release that ends while one is still running leaves the
	// state to it instead of handing it to the next open.
	users int
}

// openHandle registers a handle for an open of ino, reusing an idle
// state if there is one.
func (f *FS) openHandle(ino vfs.Ino, flags vfs.OpenFlags, upath string, size int64, ctx vfs.Ctx) (vfs.Handle, *cofsHandle) {
	var hs *cofsHandle
	if n := len(f.idle); n > 0 {
		hs = f.idle[n-1]
		f.idle[n-1] = nil
		f.idle = f.idle[:n-1]
	} else {
		hs = new(cofsHandle)
	}
	*hs = cofsHandle{id: ino, flags: flags, upath: upath, size: size, ctx: ctx}
	h := f.nextH
	f.nextH++
	f.handles[h] = hs
	return h, hs
}

// use looks up an open handle for an I/O call, which must end with
// done.
func (f *FS) use(h vfs.Handle) (*cofsHandle, bool) {
	hs, ok := f.handles[h]
	if ok {
		hs.users++
	}
	return hs, ok
}

func (hs *cofsHandle) done() { hs.users-- }

// NewFS attaches a node to COFS. under must be a bare mount of the
// node's underlying file system client; place selects the placement
// policy (HashPlacement with the configured fanout/randomization for the
// paper's behaviour). svc is the (possibly sharded) metadata plane; the
// client routes each operation to its coordinator shard.
func NewFS(svc *MDSCluster, host *netsim.Host, node int, under *vfs.Mount, place Placement, cfg params.COFSParams, rng *rand.Rand) *FS {
	cache := newClientCache(cfg)
	env := svc.net.Env()
	return &FS{
		svc:      svc,
		host:     host,
		sess:     svc.Connect(host, node, cache),
		node:     node,
		under:    under,
		place:    place,
		cfg:      cfg,
		rng:      rng,
		buckets:  make(map[string]*bucketState),
		madeDirs: make(map[string]bool),
		names:    objectNamer{gen: svc.names.next()},
		handles:  make(map[vfs.Handle]*cofsHandle),
		nextH:    1,
		attrs:    cache,
		listed:   make(map[int]listing),
		advised:  lru.New[vfs.Ino, struct{}](cache.attrs.Capacity()),
		ahead:    make(map[vfs.Ino]*sim.Cond),
		removing: sim.NewResource(env, "cofs.removals", maxPendingRemovals),
	}
}

// AttrCacheHits reports client attribute-cache hits (tooling/ablation).
func (f *FS) AttrCacheHits() int64 { return f.attrs.Stats.Hits }

// CacheStats reports the client cache counters (tooling/ablation).
func (f *FS) CacheStats() CacheStats { return f.attrs.Stats }

// Session returns the client's metadata-plane connection (tooling).
func (f *FS) Session() *Session { return f.sess }

// Service returns the metadata service plane (for tooling).
func (f *FS) Service() *MDSCluster { return f.svc }

// Root implements vfs.Filesystem.
func (f *FS) Root() vfs.Ino { return RootID }

// rootCtx is the identity used for COFS's private underlying tree; the
// underlying files are owned by the daemon, with access control enforced
// at the service (section III: COFS leverages the underlying technologies
// for security, and the physical layout is opaque to users).
var rootCtx = vfs.Ctx{UID: 0, GID: 0}

// underCtx tags underlying operations with this node (the underlying
// pfs client uses ctx.Node only for diagnostics).
func (f *FS) underCtx() vfs.Ctx {
	c := rootCtx
	c.Node = f.node
	return c
}

// Lookup implements vfs.Filesystem. A still-leased dentry (positive or
// negative) resolves without a service round trip: the aggressive-caching
// extension of section IV-B applied to the paper's per-component FUSE
// lookup traffic.
func (f *FS) Lookup(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) (vfs.Attr, error) {
	attr, err, ok := f.cachedLookup(p, dir, name)
	if f.statahead(p, ctx, 0, dir, name, ok) {
		attr, err, ok = f.cachedLookup(p, dir, name)
	}
	if ok {
		return attr, err
	}
	f.Stats.ServiceOps++
	return f.svc.Lookup(p, f.sess, dir, name)
}

// cachedLookup resolves (dir, name) from the client cache alone.
func (f *FS) cachedLookup(p *sim.Proc, dir vfs.Ino, name string) (vfs.Attr, error, bool) {
	child, negative, ok := f.attrs.lookupDentry(p, dir, name)
	if !ok {
		return vfs.Attr{}, nil, false
	}
	if negative {
		f.attrs.Stats.NegativeHits++
		return vfs.Attr{}, vfs.ErrNotExist, true
	}
	e, ok := f.attrs.get(p, child)
	if !ok {
		return vfs.Attr{}, nil, false
	}
	f.attrs.Stats.DentryHits++
	return e.attr, nil, true
}

// Getattr implements vfs.Filesystem.
func (f *FS) Getattr(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino) (vfs.Attr, error) {
	e, ok := f.attrs.get(p, ino)
	if f.statahead(p, ctx, ino, 0, "", ok) {
		e, ok = f.attrs.get(p, ino)
	}
	if ok {
		return e.attr, nil
	}
	f.Stats.ServiceOps++
	return f.svc.Getattr(p, f.sess, ino)
}

// Setattr implements vfs.Filesystem. Truncation is forwarded to the
// underlying file as well, since size lives there authoritatively while
// a writer is active.
func (f *FS) Setattr(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, set vfs.SetAttr) (vfs.Attr, error) {
	attr, _, err := f.setattr(p, ctx, ino, set)
	return attr, err
}

// setattr is Setattr returning the truncated file's underlying path as
// well: a truncating Setattr's reply carries the mapping (see
// Service.Setattr), which the underlying truncate needs.
func (f *FS) setattr(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, set vfs.SetAttr) (vfs.Attr, string, error) {
	f.Stats.ServiceOps++
	f.attrs.drop(ino)
	attr, upath, err := f.svc.Setattr(p, f.sess, ctx, ino, set)
	if err != nil {
		return attr, "", err
	}
	if upath != "" {
		if err := f.under.Truncate(p, f.underCtx(), upath, set.Size); err != nil {
			return attr, upath, err
		}
	}
	return attr, upath, nil
}

// Create implements vfs.Filesystem. The client names the file's
// underlying object itself (objectPath) and creates it while a helper
// commits the name at the service: a create costs the longer of the
// two, not their sum (docs/transactions.md, "Object and name
// together"). Either half failing undoes the other, so no name outlives
// a failed create without its object, and no object without its name.
func (f *FS) Create(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32) (vfs.Attr, vfs.Handle, error) {
	if name == "" || len(name) > vfs.MaxNameLen {
		return vfs.Attr{}, 0, vfs.ErrInvalid
	}
	if f.leasedExisting(p, ctx, dir, name) {
		return vfs.Attr{}, 0, vfs.ErrExist
	}
	upath, err := f.objectPath(p, ctx, dir)
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	f.Stats.ServiceOps++
	c := f.startCommit(p, ctx, dir, name, mode, upath)
	var uf vfs.File
	uerr := f.under.CreateExclInto(p, f.underCtx(), upath, 0600, &uf)
	attr, err := c.await(p)
	if err != nil {
		// No name was committed, so nothing can reach the object.
		if uerr == nil {
			_ = uf.Close(p) // nothing was written; the file goes next
			f.removeUnder(p, upath)
		}
		return vfs.Attr{}, 0, err
	}
	f.attrs.drop(dir) // parent mtime changed
	if uerr != nil {
		// The name is committed but names no object: take it back. The
		// object's error is the one to report.
		f.undoCreate(p, ctx, dir, name, attr.Ino)
		return vfs.Attr{}, 0, uerr
	}
	f.Stats.UnderCreates++
	h, hs := f.openHandle(attr.Ino, vfs.OpenWrite, upath, 0, ctx)
	hs.file = uf
	return attr, h, nil
}

// Open implements vfs.Filesystem. The underlying file is NOT opened here
// but at the first read or write (ensureUnderFile), so a metadata-only
// open/close (and the open storm at the start of parallel data
// transfers, Table I) costs one service round trip at most, and none
// while the client holds a leased attribute entry: the type and
// permission checks need only the attributes. The underlying mapping,
// if the entry lacks it, rides the first I/O.
func (f *FS) Open(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	var attr vfs.Attr
	var upath string
	if e, ok := f.attrs.get(p, ino); ok {
		attr, upath = e.attr, e.upath
	} else {
		f.Stats.ServiceOps++
		var err error
		attr, upath, err = f.svc.OpenInfo(p, f.sess, ino)
		if err != nil {
			return 0, err
		}
	}
	if attr.Type == vfs.TypeDir {
		return 0, vfs.ErrIsDir
	}
	// The mount layer does not follow symbolic links; opening one is an
	// error (uniform across all stacked file systems).
	if attr.Type == vfs.TypeSymlink {
		return 0, vfs.ErrInvalid
	}
	bit := uint32(4)
	if flags&(vfs.OpenWrite|vfs.OpenTrunc) != 0 {
		bit = 2
	}
	if !canAccess(ctx, attr.UID, attr.GID, attr.Mode, bit) {
		return 0, vfs.ErrPerm
	}
	if flags&vfs.OpenTrunc != 0 {
		var err error
		if _, upath, err = f.setattr(p, ctx, ino, vfs.SetAttr{HasSize: true, Size: 0}); err != nil {
			return 0, err
		}
		// The handle tracks the file size for write-back at close; it
		// must start from the truncated size, not the pre-open one.
		attr.Size = 0
	}
	f.Stats.LazyOpensSkipped++
	h, _ := f.openHandle(ino, flags, upath, attr.Size, ctx)
	return h, nil
}

// ensureUnderFile lazily opens the underlying file for a handle. It is
// the one place that needs the underlying path: a handle opened from a
// cached entry without it takes the mapping from the entry, if another
// handle has fetched it since, or else fetches it with one OpenInfo,
// which also refreshes the entry. The mapping never changes while the
// inode lives; once the file is gone (unlinked, or renamed over) the
// fetch fails with ErrNotExist, as the underlying open would have.
func (f *FS) ensureUnderFile(p *sim.Proc, h *cofsHandle) error {
	if h.file.IsOpen() {
		return nil
	}
	if h.upath == "" {
		if e, ok := f.attrs.get(p, h.id); ok && e.upath != "" {
			h.upath = e.upath
		} else {
			f.Stats.ServiceOps++
			_, upath, err := f.svc.OpenInfo(p, f.sess, h.id)
			if err != nil {
				return err
			}
			h.upath = upath
		}
	}
	if err := f.under.OpenInto(p, f.underCtx(), h.upath, h.flags, &h.file); err != nil {
		return err
	}
	f.Stats.UnderOpens++
	f.Stats.LazyOpensSkipped--
	return nil
}

// Read implements vfs.Filesystem (pure passthrough beyond the lazy open;
// COFS keeps no block information — section III-D).
func (f *FS) Read(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle, off, n int64) (int64, error) {
	hs, ok := f.use(h)
	if !ok {
		return 0, vfs.ErrBadHandle
	}
	defer hs.done()
	if err := f.ensureUnderFile(p, hs); err != nil {
		return 0, err
	}
	return hs.file.ReadAt(p, off, n)
}

// Write implements vfs.Filesystem.
func (f *FS) Write(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle, off, n int64) (int64, error) {
	hs, ok := f.use(h)
	if !ok {
		return 0, vfs.ErrBadHandle
	}
	defer hs.done()
	if hs.flags&(vfs.OpenWrite|vfs.OpenTrunc) == 0 {
		return 0, vfs.ErrPerm
	}
	if err := f.ensureUnderFile(p, hs); err != nil {
		return 0, err
	}
	moved, err := hs.file.WriteAt(p, off, n)
	if moved > 0 {
		hs.wrote = true
		if off+moved > hs.size {
			hs.size = off + moved
		}
	}
	return moved, err
}

// Fsync implements vfs.Filesystem.
func (f *FS) Fsync(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle) error {
	hs, ok := f.use(h)
	if !ok {
		return vfs.ErrBadHandle
	}
	defer hs.done()
	if !hs.file.IsOpen() {
		return nil
	}
	return hs.file.Fsync(p)
}

// Release implements vfs.Filesystem: close the underlying file (if it
// was ever opened) and write back size/mtime to the service if we wrote.
// The handle's state then goes idle for the next open to reuse.
func (f *FS) Release(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle) error {
	hs, ok := f.handles[h]
	if !ok {
		return vfs.ErrBadHandle
	}
	delete(f.handles, h)
	err := f.release(p, hs)
	if hs.users == 0 {
		*hs = cofsHandle{}
		f.idle = append(f.idle, hs)
	}
	return err
}

func (f *FS) release(p *sim.Proc, hs *cofsHandle) error {
	if hs.file.IsOpen() {
		if err := hs.file.Close(p); err != nil {
			return err
		}
	}
	if hs.wrote {
		f.attrs.drop(hs.id)
		f.Stats.WriteBacks++
		f.Stats.ServiceOps++
		if err := f.svc.WriteBack(p, f.sess, hs.id, hs.size, p.Now()); err != nil && err != vfs.ErrNotExist {
			return err
		}
	}
	return nil
}

// Unlink implements vfs.Filesystem: remove from the service; when the
// last link dies, hand the underlying file to a background removal
// (removal.go) and return.
func (f *FS) Unlink(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) error {
	f.Stats.ServiceOps++
	upath, gone, err := f.svc.Remove(p, f.sess, ctx, dir, name, false, 0)
	if err != nil {
		return err
	}
	f.attrs.drop(gone) // nlink changed (or object removed)
	f.attrs.drop(dir)  // parent mtime changed
	f.attrs.dropDentry(dir, name)
	if upath != "" {
		f.removeUnder(p, upath)
	}
	return nil
}

// Mkdir implements vfs.Filesystem: directories are purely virtual (no
// underlying presence).
func (f *FS) Mkdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32) (vfs.Attr, error) {
	if name == "" || len(name) > vfs.MaxNameLen {
		return vfs.Attr{}, vfs.ErrInvalid
	}
	f.Stats.ServiceOps++
	attr, err := f.svc.Create(p, f.sess, ctx, dir, name, vfs.TypeDir, mode, "", "")
	if err == nil {
		f.attrs.drop(dir) // parent nlink/mtime changed
	}
	return attr, err
}

// Rmdir implements vfs.Filesystem.
func (f *FS) Rmdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) error {
	f.Stats.ServiceOps++
	_, gone, err := f.svc.Remove(p, f.sess, ctx, dir, name, true, 0)
	if err == nil {
		f.attrs.drop(gone)
		f.attrs.drop(dir) // parent nlink/mtime changed
		f.attrs.dropDentry(dir, name)
	}
	return err
}

// Rename implements vfs.Filesystem: a pure service transaction — the
// underlying layout never changes because mappings are by file id. The
// reply leased the destination name to this client, so its entry stays;
// a replaced file whose last link went goes to a background removal.
func (f *FS) Rename(p *sim.Proc, ctx vfs.Ctx, srcDir vfs.Ino, srcName string, dstDir vfs.Ino, dstName string) error {
	f.Stats.ServiceOps++
	upath, replaced, err := f.svc.Rename(p, f.sess, ctx, srcDir, srcName, dstDir, dstName)
	if err != nil {
		return err
	}
	f.attrs.drop(replaced) // replaced target's nlink changed (or gone)
	f.attrs.drop(srcDir)   // both parents' nlink/mtime changed
	f.attrs.drop(dstDir)
	f.attrs.dropDentry(srcDir, srcName)
	if upath != "" {
		f.removeUnder(p, upath)
	}
	return nil
}

// Link implements vfs.Filesystem (hard links are service-only: both
// names map to the same file id and hence the same underlying file).
func (f *FS) Link(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, dir vfs.Ino, name string) (vfs.Attr, error) {
	f.Stats.ServiceOps++
	attr, err := f.svc.Link(p, f.sess, ctx, ino, dir, name)
	if err == nil {
		// The shard granted the fresh post-link attributes with the
		// reply; only the parent's entry is stale.
		f.attrs.drop(dir) // parent mtime changed
	}
	return attr, err
}

// Symlink implements vfs.Filesystem (service-only).
func (f *FS) Symlink(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name, target string) (vfs.Attr, error) {
	f.Stats.ServiceOps++
	attr, err := f.svc.Create(p, f.sess, ctx, dir, name, vfs.TypeSymlink, 0777, "", target)
	if err == nil {
		f.attrs.drop(dir) // parent mtime changed
	}
	return attr, err
}

// Readlink implements vfs.Filesystem.
func (f *FS) Readlink(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino) (string, error) {
	f.Stats.ServiceOps++
	return f.svc.Readlink(p, f.sess, ino)
}

// Readdir implements vfs.Filesystem. A listing carries attributes only
// when the access pattern asks for them — the policy Lustre's statahead
// and Linux NFS's READDIRPLUS heuristic converged on. By default it is
// names-only: no child row read and no new lease, so listing a directory
// neither evicts the client's hot entries nor books a recall onto every
// later mutation under it. FS remembers, per process, the first two
// entries a listing of two or more returned; when that process's next
// two Getattrs or Lookups target exactly those entries, in that order,
// an `ls -l` has begun and the directory is advised: its next listing
// is fetched READDIRPLUS-style and prefills the cache, so the stat
// sweep that follows never goes back to the service (section IV-B's
// aggressive caching applied to the paper's directory-traversal
// trigger). A lone stat of the first entry is not a sweep — it is as
// often a program after the one file that sorts first — so it leases
// nothing beyond its own entry (docs/rpc.md, "Why two entries"), and
// the first stat of a true sweep pays its own round trip. If the
// second stat missed the cache, the bulk fetch is issued right there
// instead of one RPC per entry (statahead). A plus listing consumes the
// advice; only another two-entry sweep renews it, so a process that
// stops stat-ing stops paying for attributes. A listing of a directory
// whose attribute lease the client already holds is installed with
// that lease (Service.grantListing), and a non-advised listing is
// served from it, after the read-permission check the shard would
// apply, for as long as the directory's attribute entry stays valid.
// With the cache disabled nothing is remembered and every listing is
// names-only.
func (f *FS) Readdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino) ([]vfs.DirEntry, error) {
	var ents []vfs.DirEntry
	var err error
	if f.advised.Remove(dir) {
		ents, err = f.readdirPlus(p, ctx, dir)
	} else if cached, attr, ok := f.attrs.listing(p, dir); ok {
		f.attrs.Stats.ListingHits++
		if !canAccess(ctx, attr.UID, attr.GID, attr.Mode, 4) {
			return nil, vfs.ErrPerm
		}
		ents = slices.Clone(cached)
	} else {
		f.Stats.ServiceOps++
		ents, err = f.svc.Readdir(p, f.sess, ctx, dir)
	}
	if err == nil && len(ents) > 1 && f.attrs.enabled() {
		f.listed[ctx.PID] = listing{
			dir:  dir,
			ino:  [2]vfs.Ino{ents[0].Ino, ents[1].Ino},
			name: [2]string{ents[0].Name, ents[1].Name},
		}
	}
	return ents, err
}

// readdirPlus lists dir with attributes; the shards install what they
// grant into the cache (lease.go).
func (f *FS) readdirPlus(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino) ([]vfs.DirEntry, error) {
	f.Stats.ServiceOps++
	f.Stats.PlusListings++
	ents, _, err := f.svc.ReaddirPlus(p, f.sess, ctx, dir)
	return ents, err
}

// statahead applies the rule of Readdir to a stat of ino (Getattr) or of
// (dir, name) (Lookup) that the cache did or did not serve (hit). A stat
// of what the process's last listing returned first only arms the
// listing record; any other stat spends it, so only the two stats right
// after a listing, in listing order, can start a traversal. If the
// armed record's target is what the listing returned second, the listed
// directory is advised and, on a miss, its attributes are fetched in
// one RPC right away: the result says whether the caller should probe
// the cache again. One such fetch per directory is in flight per node:
// a process that finds one waits for it instead of issuing its own. The
// fetch's error is dropped — a caller that still misses issues the
// single RPC it would have issued anyway, which reports its own.
func (f *FS) statahead(p *sim.Proc, ctx vfs.Ctx, ino, dir vfs.Ino, name string, hit bool) bool {
	l, ok := f.listed[ctx.PID]
	if !ok {
		return false
	}
	if l.names(0, ino, dir, name) {
		l.armed = true
		f.listed[ctx.PID] = l
		return false
	}
	delete(f.listed, ctx.PID)
	if !l.armed || !l.names(1, ino, dir, name) {
		return false
	}
	f.advised.Put(l.dir, struct{}{})
	if hit {
		return false
	}
	if c, ok := f.ahead[l.dir]; ok {
		c.Wait(p)
		return true
	}
	c := sim.NewCond(p.Env())
	f.ahead[l.dir] = c
	f.Stats.Stataheads++
	_, _ = f.readdirPlus(p, ctx, l.dir)
	delete(f.ahead, l.dir)
	c.Broadcast()
	return true
}

// StatFS implements vfs.Filesystem.
func (f *FS) StatFS(p *sim.Proc, ctx vfs.Ctx) (vfs.Statfs, error) {
	f.Stats.ServiceOps++
	files, dirs := f.svc.CountObjects(p, f.sess)
	return vfs.Statfs{Files: files, Dirs: dirs}, nil
}
