// Package pfs implements the GPFS-like shared-disk parallel file system
// the paper runs on (and blames): a cluster file system with
//
//   - metadata packed into blocks: directory entries hash into directory
//     blocks, inode attributes pack InodesPerBlock to a block — the lock
//     units whose "false sharing" the paper identifies (section II-B);
//   - a distributed token manager (internal/lock): tokens are cached by
//     the node that acquired them, so single-node access is local and
//     fast, while cross-node access pays revocation round-trips;
//   - directory write delegation: a node holding a small directory's
//     token exclusively creates files locally (journaled, write-back),
//     matching the sub-millisecond fast region of Fig. 1;
//   - striped data over NSD servers (internal/blockstore) with a
//     client-side page pool.
//
// The package implements vfs.Filesystem per client node, so benchmarks
// mount it exactly like the COFS stack.
package pfs

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"strings"
	"time"

	"cofs/internal/blockstore"
	"cofs/internal/disk"
	"cofs/internal/lock"
	"cofs/internal/lru"
	"cofs/internal/netsim"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// Token kinds used by the file system.
const (
	// KindDir tokens cover a directory's name space: shared for
	// lookup/readdir, exclusive for create/unlink/rename. An exclusive
	// holder of a small directory effectively owns it (delegation).
	KindDir lock.Kind = iota + 1
	// KindInode tokens cover one inode *block* (InodesPerBlock inodes
	// packed together): the false-sharing unit.
	KindInode
)

// RootIno is the root directory inode number.
const RootIno vfs.Ino = 1

type inode struct {
	attr    vfs.Attr
	entries map[string]vfs.Ino // directories
	target  string             // symlinks
}

type dirBlockKey struct {
	dir vfs.Ino
	idx uint32
}

// ServerStats aggregates server-side counters.
type ServerStats struct {
	MetaRPCs      int64
	DiskReads     int64
	RemoteCreates int64
	Commits       int64
}

// Server is the shared state of the file system: the file servers, their
// disks and buffer caches, the token manager, and the (authoritative)
// namespace. Clients mutate the namespace through charged operations.
type Server struct {
	env *sim.Env
	net *netsim.Net
	cfg params.Config

	hosts []*netsim.Host
	disks []*disk.Disk
	// per-host buffer caches, keyed like the client caches
	inodeCaches []*lru.Cache[uint64, struct{}]
	dirCaches   []*lru.Cache[dirBlockKey, struct{}]

	Tokens *lock.Manager
	Data   *blockstore.Store

	inodes map[vfs.Ino]*inode
	// inodeSlab is the chunk the next allocated inode is carved from.
	// Slots are never reused, because a caller may hold an *inode
	// across a sleep; a chunk is freed once all its inodes are.
	inodeSlab []inode
	// Per-allocator sequence numbers for region-scattered inode
	// allocation (see allocInode).
	allocSeq map[int]uint64

	clients []*Client

	Stats ServerStats
}

// NewServer creates the file system backend on the given server hosts.
func NewServer(net *netsim.Net, hosts []*netsim.Host, cfg params.Config) *Server {
	if len(hosts) == 0 {
		panic("pfs: need at least one server host")
	}
	env := net.Env()
	s := &Server{
		env:      env,
		net:      net,
		cfg:      cfg,
		hosts:    hosts,
		inodes:   make(map[vfs.Ino]*inode),
		allocSeq: make(map[int]uint64),
	}
	for i, h := range hosts {
		s.disks = append(s.disks, disk.New(env, fmt.Sprintf("pfsdisk%d", i), cfg.Disk))
		s.inodeCaches = append(s.inodeCaches, lru.New[uint64, struct{}](cfg.PFS.ServerInodeCacheBlocks))
		s.dirCaches = append(s.dirCaches, lru.New[dirBlockKey, struct{}](cfg.PFS.ServerDirCacheBlocks))
		_ = h
	}
	s.Tokens = lock.NewManager(net, hosts[0], cfg.PFS.ServerCPUPerOp)
	s.Data = blockstore.New(net, hosts, s.disks, cfg.PFS.StripeSize)

	root := &inode{
		attr:    vfs.Attr{Ino: RootIno, Type: vfs.TypeDir, Mode: 0777, Nlink: 2},
		entries: make(map[string]vfs.Ino),
	}
	s.inodes[RootIno] = root
	return s
}

// Config returns the file system configuration.
func (s *Server) Config() params.Config { return s.cfg }

// Hosts returns the server hosts.
func (s *Server) Hosts() []*netsim.Host { return s.hosts }

// Inode allocation layout. GPFS hands each node its own allocation
// regions and cycles between them, so inodes created back-to-back land in
// *different* inode blocks (while an individual region fills
// sequentially). Two consequences the paper depends on:
//
//   - one node's creates never share an inode block with another node's
//     (private-directory workloads stay conflict-free), and
//   - a long sequential create by one node produces inodes scattered
//     across blocks, so later strided cross-node stats hit blocks holding
//     a mix of other nodes' working sets (false sharing, Fig. 2/5) and a
//     sequential single-node scan larger than the inode cache misses on
//     (almost) every access (the Fig. 1 plateau).
const (
	// regionsPerNode is intentionally coprime with typical node counts
	// (2..64) so rank-strided access interleaves across regions.
	regionsPerNode = 37
	// regionCapacity is the number of inodes one region can hold.
	regionCapacity = 1 << 24
	// inodeSlabChunk is the inode count of one allocation slab chunk.
	inodeSlabChunk = 256
)

func (s *Server) allocInode(node int, t vfs.FileType, mode, uid, gid uint32) *inode {
	seq := s.allocSeq[node]
	s.allocSeq[node] = seq + 1
	region := uint64(node+1)*uint64(regionsPerNode) + seq%regionsPerNode
	ino := vfs.Ino(region*regionCapacity + seq/regionsPerNode + 2)
	if _, clash := s.inodes[ino]; clash {
		panic("pfs: inode allocation collision")
	}
	if len(s.inodeSlab) == cap(s.inodeSlab) {
		s.inodeSlab = make([]inode, 0, inodeSlabChunk)
	}
	s.inodeSlab = append(s.inodeSlab, inode{
		attr: vfs.Attr{Ino: ino, Type: t, Mode: mode, UID: uid, GID: gid, Nlink: 1},
	})
	in := &s.inodeSlab[len(s.inodeSlab)-1]
	if t == vfs.TypeDir {
		in.entries = make(map[string]vfs.Ino)
	}
	s.inodes[ino] = in
	return in
}

// mkdir links a new directory, allocated from node's regions, into din
// under name.
func (s *Server) mkdir(node int, din *inode, name string, mode, uid, gid uint32) *inode {
	in := s.allocInode(node, vfs.TypeDir, mode, uid, gid)
	in.attr.Nlink = 2
	din.entries[name] = in.attr.Ino
	din.attr.Nlink++
	return in
}

// Format lays dirs out as root-owned directories of the given mode,
// each with its missing parents, the way a format tool (pvfs2-mkspace,
// mkfs.lustre, mmcrfs) writes a file system before any client mounts
// it. It runs no simulated work and takes no tokens. The inodes come
// from node's regions in the order a serial MkdirAll of dirs from node
// would take them, and the home servers' buffer caches end holding the
// directory blocks that MkdirAll leaves there, in the same order: each
// path component, inserted or walked, reads the parent's block its
// name hashes to through a client-sized block cache of the formatter's
// own, and writes it through the server's cache on a miss there or,
// past the delegation limit, on every mutation.
func (s *Server) Format(node int, mode uint32, dirs []string) {
	own := lru.New[dirBlockKey, struct{}](s.cfg.PFS.ClientDirCacheBlocks)
	for _, dir := range dirs {
		din := s.inodes[RootIno]
		for rest := dir; rest != ""; {
			var name string
			name, rest, _ = strings.Cut(rest, "/")
			if name == "" {
				continue
			}
			key := s.dirBlockOf(din.attr.Ino, len(din.entries), name)
			_, hit := own.Get(key)
			if !hit {
				own.Put(key, struct{}{})
			}
			if !hit || len(din.entries) >= s.cfg.PFS.CreateDelegationMaxEntries {
				s.dirCaches[s.homeHost(key.dir)].Put(key, struct{}{})
			}
			ino, ok := din.entries[name]
			if !ok {
				ino = s.mkdir(node, din, name, mode, 0, 0).attr.Ino
			}
			din = s.inodes[ino]
		}
	}
}

// mix64 is a splitmix64-style finalizer used to spread object ids across
// servers (plain modulo correlates badly with the region-structured inode
// space and lands whole working sets on one server).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// homeHost maps an object to the server responsible for it.
func (s *Server) homeHost(ino vfs.Ino) int {
	return int(mix64(uint64(ino)) % uint64(len(s.hosts)))
}

// blockHost maps an inode block to its server.
func (s *Server) blockHost(block uint64) int {
	return int(mix64(block) % uint64(len(s.hosts)))
}

// inodeBlock returns the inode-block id containing ino (the packing /
// false-sharing unit).
func (s *Server) inodeBlock(ino vfs.Ino) uint64 {
	return uint64(ino) / uint64(s.cfg.PFS.InodesPerBlock)
}

// dirBlocks returns the number of directory blocks (a power of two, as
// with extendible hashing) for a directory with n entries.
func (s *Server) dirBlocks(n int) uint32 {
	need := (n + s.cfg.PFS.DirBlockEntries - 1) / s.cfg.PFS.DirBlockEntries
	if need <= 1 {
		return 1
	}
	return uint32(1) << uint(bits.Len(uint(need-1)))
}

// dirBlockOf hashes a name into one of the directory's blocks.
func (s *Server) dirBlockOf(dir vfs.Ino, nEntries int, name string) dirBlockKey {
	h := fnv.New32a()
	h.Write([]byte(name))
	return dirBlockKey{dir: dir, idx: h.Sum32() & (s.dirBlocks(nEntries) - 1)}
}

// readInodeBlockAt charges a server-side inode block access on the given
// host: buffer cache hit is free beyond CPU; a miss reads the disk.
func (s *Server) readInodeBlockAt(p *sim.Proc, host int, block uint64) {
	cache := s.inodeCaches[host]
	if _, ok := cache.Get(block); ok {
		return
	}
	s.Stats.DiskReads++
	s.disks[host].Read(p, int64(block), 4096)
	cache.Put(block, struct{}{})
}

// readDirBlockAt charges a server-side directory block access.
func (s *Server) readDirBlockAt(p *sim.Proc, host int, key dirBlockKey) {
	cache := s.dirCaches[host]
	if _, ok := cache.Get(key); ok {
		return
	}
	s.Stats.DiskReads++
	s.disks[host].Read(p, int64(uint64(key.dir)<<16|uint64(key.idx)), 4096)
	cache.Put(key, struct{}{})
}

// fetchInodeBlock is the client->server RPC to read an inode block.
func (s *Server) fetchInodeBlock(p *sim.Proc, from *netsim.Host, block uint64) {
	host := s.blockHost(block)
	netsim.Call(p, s.net, from, s.hosts[host], 64, 4096, func(p *sim.Proc) struct{} {
		s.Stats.MetaRPCs++
		p.Sleep(s.cfg.PFS.ServerCPUPerOp)
		s.readInodeBlockAt(p, host, block)
		return struct{}{}
	})
}

// fetchDirBlock is the client->server RPC to read a directory block.
func (s *Server) fetchDirBlock(p *sim.Proc, from *netsim.Host, key dirBlockKey) {
	host := s.homeHost(key.dir)
	netsim.Call(p, s.net, from, s.hosts[host], 64, 4096, func(p *sim.Proc) struct{} {
		s.Stats.MetaRPCs++
		p.Sleep(s.cfg.PFS.ServerCPUPerOp)
		s.readDirBlockAt(p, host, key)
		return struct{}{}
	})
}

// remoteMutate is the client->server RPC for a directory mutation that is
// too large (or not delegated) to journal locally: read-modify-write of
// the target dir block plus a synchronous journal commit.
func (s *Server) remoteMutate(p *sim.Proc, from *netsim.Host, dir vfs.Ino, nEntries int, name string) {
	host := s.homeHost(dir)
	key := s.dirBlockOf(dir, nEntries, name)
	netsim.Call(p, s.net, from, s.hosts[host], 128, 64, func(p *sim.Proc) struct{} {
		s.Stats.MetaRPCs++
		s.Stats.RemoteCreates++
		p.Sleep(s.cfg.PFS.ServerCPUPerOp)
		s.readDirBlockAt(p, host, key)
		s.Stats.Commits++
		s.disks[host].Commit(p)
		return struct{}{}
	})
}

// flushMeta is the client->server RPC that writes back dirty metadata
// when a token is revoked or voluntarily flushed. durable forces a
// journal commit (group-committed on the server disk).
func (s *Server) flushMeta(p *sim.Proc, from *netsim.Host, home int, durable bool) {
	netsim.Call(p, s.net, from, s.hosts[home], 4096, 64, func(p *sim.Proc) struct{} {
		s.Stats.MetaRPCs++
		p.Sleep(s.cfg.PFS.ServerCPUPerOp)
		if durable {
			s.Stats.Commits++
			s.disks[home].Commit(p)
		}
		return struct{}{}
	})
}

// CountObjects returns (files, dirs) for StatFS.
func (s *Server) CountObjects() (files, dirs int64) {
	for _, in := range s.inodes {
		files++
		if in.attr.Type == vfs.TypeDir {
			dirs++
		}
	}
	return files, dirs
}

// CheckInvariants verifies internal consistency: every directory entry
// points at a live inode, nlink counts are consistent for files, and the
// token manager state is sane. Tests call it after workloads.
func (s *Server) CheckInvariants() error {
	refs := make(map[vfs.Ino]int)
	for ino, in := range s.inodes {
		if in.attr.Type != vfs.TypeDir {
			continue
		}
		for name, child := range in.entries {
			cin, ok := s.inodes[child]
			if !ok {
				return fmt.Errorf("pfs: dir %d entry %q points at missing inode %d", ino, name, child)
			}
			if cin.attr.Type != vfs.TypeDir {
				refs[child]++
			}
		}
	}
	for ino, n := range refs {
		if got := s.inodes[ino].attr.Nlink; got != n {
			return fmt.Errorf("pfs: inode %d nlink=%d but %d references", ino, got, n)
		}
	}
	return s.Tokens.CheckInvariants()
}

// Elapsed is a convenience for tests: current virtual time.
func (s *Server) Elapsed() time.Duration { return s.env.Now() }
