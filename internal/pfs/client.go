package pfs

import (
	"sort"

	"cofs/internal/blockstore"
	"cofs/internal/lock"
	"cofs/internal/lru"
	"cofs/internal/netsim"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// dirty levels for written-back metadata.
const (
	dirtyNone uint8 = iota
	dirtyAsync
	dirtyDurable
)

// ClientStats aggregates node-side counters.
type ClientStats struct {
	LocalCreates  int64
	RemoteCreates int64
	TokenAcquires int64
	InodeFetches  int64
	DirFetches    int64
	Revocations   int64
	MetaFlushes   int64
	DataFlushes   int64
}

type handleState struct {
	ino   vfs.Ino
	flags vfs.OpenFlags
}

// Client is one node's view of the file system. It implements
// vfs.Filesystem (mountable) and lock.Client (revocable).
type Client struct {
	srv  *Server
	host *netsim.Host
	node int

	tokens *lock.Cache
	// inoCache holds individually cached inode attributes (GPFS's
	// maxFilesToCache); tokens stay block-granular.
	inoCache  *lru.Cache[vfs.Ino, struct{}]
	dirBlocks *lru.Cache[dirBlockKey, struct{}]
	dirty     map[lock.Resource]uint8
	// busy counts in-flight local uses of a token; revocations wait for
	// the count to drain (GPFS quiesces before releasing a token) — this
	// is what serializes shared-directory mutations across nodes.
	busy     map[lock.Resource]int
	busyCond *sim.Cond

	// pagepool maps a cached stripe to how many of its leading bytes
	// the node holds.
	pagepool     *lru.Cache[blockstore.Stripe, int64]
	dirtyStripes map[blockstore.Stripe]int64

	handles map[vfs.Handle]handleState
	nextH   vfs.Handle

	Stats ClientStats
}

// NewClient attaches a node to the file system.
func (s *Server) NewClient(host *netsim.Host, node int) *Client {
	cfg := s.cfg.PFS
	poolStripes := int(cfg.PagePoolBytes / cfg.StripeSize)
	if poolStripes < 4 {
		poolStripes = 4
	}
	c := &Client{
		srv:          s,
		host:         host,
		node:         node,
		tokens:       lock.NewCacheSized(max(cfg.TokenCacheEntries, 8)),
		inoCache:     lru.New[vfs.Ino, struct{}](cfg.MaxFilesToCache),
		dirBlocks:    lru.New[dirBlockKey, struct{}](cfg.ClientDirCacheBlocks),
		dirty:        make(map[lock.Resource]uint8),
		busy:         make(map[lock.Resource]int),
		busyCond:     sim.NewCond(s.env),
		pagepool:     lru.New[blockstore.Stripe, int64](poolStripes),
		dirtyStripes: make(map[blockstore.Stripe]int64),
		handles:      make(map[vfs.Handle]handleState),
		nextH:        1,
	}
	s.clients = append(s.clients, c)
	return c
}

// Host implements lock.Client.
func (c *Client) Host() *netsim.Host { return c.host }

// Node returns the node index this client runs on.
func (c *Client) Node() int { return c.node }

// Revoke implements lock.Client: quiesce in-flight uses, give up the
// token (immediately, so concurrent local ops re-acquire), then flush
// dirty state covered by it.
func (c *Client) Revoke(p *sim.Proc, r lock.Resource, to lock.Mode) {
	c.Stats.Revocations++
	// Quiesce: wait for in-flight local uses of this token to finish.
	for c.busy[r] > 0 {
		c.busyCond.Wait(p)
	}
	c.tokens.Downgrade(r, to)
	if to == lock.ModeNone {
		c.dropBlocks(r)
	}
	if lvl := c.dirty[r]; lvl != dirtyNone {
		c.Stats.MetaFlushes++
		p.Sleep(c.srv.cfg.PFS.TokenRevokeFlush)
		home := c.flushHome(r)
		c.srv.flushMeta(p, c.host, home, lvl == dirtyDurable)
		delete(c.dirty, r)
	}
}

// Granted implements lock.Client: record the grant synchronously so a
// racing revoke can never be overwritten by a stale cache update.
func (c *Client) Granted(r lock.Resource, mode lock.Mode) {
	c.tokens.Set(r, mode)
}

func (c *Client) flushHome(r lock.Resource) int {
	switch lock.Kind(r.Kind) {
	case KindDir:
		return c.srv.homeHost(vfs.Ino(r.ID))
	default:
		return c.srv.blockHost(r.ID)
	}
}

func (c *Client) dropBlocks(r lock.Resource) {
	switch lock.Kind(r.Kind) {
	case KindInode:
		// Drop every cached inode packed into the revoked block.
		per := uint64(c.srv.cfg.PFS.InodesPerBlock)
		c.inoCache.RemoveFunc(func(ino vfs.Ino) bool { return uint64(ino)/per == r.ID })
	case KindDir:
		c.dirBlocks.RemoveFunc(func(key dirBlockKey) bool { return uint64(key.dir) == r.ID })
	}
}

func (c *Client) cpu(p *sim.Proc) { p.Sleep(c.srv.cfg.PFS.ClientCPUPerOp) }

// pin marks a granted token as in use so revocations wait; the pinned
// section must never acquire another token (bounded work only), which
// keeps pin/revoke cycles impossible.
func (c *Client) pin(r lock.Resource) { c.busy[r]++ }

func (c *Client) unpin(r lock.Resource) {
	c.busy[r]--
	if c.busy[r] <= 0 {
		delete(c.busy, r)
		c.busyCond.Broadcast()
	}
}

func (c *Client) markDirty(r lock.Resource, lvl uint8) {
	if c.dirty[r] < lvl {
		c.dirty[r] = lvl
	}
}

// ensureToken makes sure this client holds r at least at mode. The
// cache update happens via the Granted callback inside the manager.
func (c *Client) ensureToken(p *sim.Proc, r lock.Resource, mode lock.Mode) {
	if c.tokens.Has(r, mode) {
		return
	}
	c.Stats.TokenAcquires++
	c.srv.Tokens.Acquire(p, c, r, mode)
}

func dirResource(dir vfs.Ino) lock.Resource {
	return lock.Resource{Kind: lock.Kind(KindDir), ID: uint64(dir)}
}

func (c *Client) inodeResource(ino vfs.Ino) lock.Resource {
	return lock.Resource{Kind: lock.Kind(KindInode), ID: c.srv.inodeBlock(ino)}
}

// ensureDirBlock makes the directory block holding name readable locally.
func (c *Client) ensureDirBlock(p *sim.Proc, dir vfs.Ino, nEntries int, name string) {
	key := c.srv.dirBlockOf(dir, nEntries, name)
	if _, ok := c.dirBlocks.Get(key); ok {
		return
	}
	c.Stats.DirFetches++
	c.srv.fetchDirBlock(p, c.host, key)
	c.dirBlocks.Put(key, struct{}{})
}

// attrAccess charges the inode-attribute access path for ino: token plus
// inode block. forWrite marks the attributes dirty (durable); otherwise,
// reading exact attributes of a regular file still takes block
// ownership and dirties access bookkeeping (async): GPFS's packed-inode
// ownership, so cross-node stats of files packed together conflict —
// the paper's false sharing (sections II-B and II-C).
func (c *Client) attrAccess(p *sim.Proc, in *inode, forWrite bool) {
	r := c.inodeResource(in.attr.Ino)
	mode := lock.ModeShared
	steal := forWrite || in.attr.Type != vfs.TypeDir
	if steal {
		mode = lock.ModeExclusive
	}
	c.ensureToken(p, r, mode)
	c.pin(r)
	defer c.unpin(r)
	if forWrite {
		c.markDirty(r, dirtyDurable)
	} else if steal {
		c.markDirty(r, dirtyAsync)
	}
	if _, ok := c.inoCache.Get(in.attr.Ino); !ok {
		c.Stats.InodeFetches++
		c.srv.fetchInodeBlock(p, c.host, c.srv.inodeBlock(in.attr.Ino))
		c.inoCache.Put(in.attr.Ino, struct{}{})
	}
}

// --- vfs.Filesystem implementation ---

// Root implements vfs.Filesystem.
func (c *Client) Root() vfs.Ino { return RootIno }

func (c *Client) dirInode(dir vfs.Ino) (*inode, error) {
	din, ok := c.srv.inodes[dir]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	if din.attr.Type != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	return din, nil
}

func canAccess(ctx vfs.Ctx, attr vfs.Attr, bit uint32) bool {
	if ctx.UID == 0 {
		return true
	}
	mode := attr.Mode
	switch {
	case ctx.UID == attr.UID:
		return mode&(bit<<6) != 0
	case ctx.GID == attr.GID:
		return mode&(bit<<3) != 0
	default:
		return mode&bit != 0
	}
}

// Lookup implements vfs.Filesystem.
func (c *Client) Lookup(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) (vfs.Attr, error) {
	c.cpu(p)
	din, err := c.dirInode(dir)
	if err != nil {
		return vfs.Attr{}, err
	}
	r := dirResource(dir)
	c.ensureToken(p, r, lock.ModeShared)
	c.pin(r)
	c.ensureDirBlock(p, dir, len(din.entries), name)
	c.unpin(r)
	ino, ok := din.entries[name]
	if !ok {
		return vfs.Attr{}, vfs.ErrNotExist
	}
	in := c.srv.inodes[ino]
	c.attrAccess(p, in, false)
	return in.attr, nil
}

// Getattr implements vfs.Filesystem.
func (c *Client) Getattr(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino) (vfs.Attr, error) {
	c.cpu(p)
	in, ok := c.srv.inodes[ino]
	if !ok {
		return vfs.Attr{}, vfs.ErrNotExist
	}
	c.attrAccess(p, in, false)
	return in.attr, nil
}

// Setattr implements vfs.Filesystem.
func (c *Client) Setattr(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, set vfs.SetAttr) (vfs.Attr, error) {
	c.cpu(p)
	in, ok := c.srv.inodes[ino]
	if !ok {
		return vfs.Attr{}, vfs.ErrNotExist
	}
	if set.HasMode && ctx.UID != 0 && ctx.UID != in.attr.UID {
		return vfs.Attr{}, vfs.ErrPerm
	}
	// POSIX: only root may change ownership (no CAP_CHOWN for owners).
	if set.HasOwner && ctx.UID != 0 {
		return vfs.Attr{}, vfs.ErrPerm
	}
	c.attrAccess(p, in, true)
	if set.HasSize && in.attr.Type == vfs.TypeRegular && set.Size < in.attr.Size {
		c.dropStripes(in.attr.Ino)
	}
	applySet(&in.attr, set, p)
	return in.attr, nil
}

func applySet(attr *vfs.Attr, set vfs.SetAttr, p *sim.Proc) {
	if set.HasMode {
		attr.Mode = set.Mode
	}
	if set.HasOwner {
		attr.UID, attr.GID = set.UID, set.GID
	}
	if set.HasSize && attr.Type == vfs.TypeRegular {
		attr.Size = set.Size
	}
	if set.HasTimes {
		attr.Atime, attr.Mtime = set.Atime, set.Mtime
	}
	attr.Ctime = p.Now()
}

// mutateDir charges a directory mutation: under write delegation (small
// directory, token held exclusively) it is a local journaled update;
// otherwise a server round trip with a synchronous commit.
func (c *Client) mutateDir(p *sim.Proc, dir vfs.Ino, nEntries int, name string) {
	r := dirResource(dir)
	c.ensureToken(p, r, lock.ModeExclusive)
	c.pin(r)
	defer c.unpin(r)
	c.ensureDirBlock(p, dir, nEntries, name)
	if nEntries < c.srv.cfg.PFS.CreateDelegationMaxEntries {
		c.markDirty(r, dirtyDurable)
		p.Sleep(c.srv.cfg.PFS.LocalMutationTime)
		c.Stats.LocalCreates++
		return
	}
	c.Stats.RemoteCreates++
	c.srv.remoteMutate(p, c.host, dir, nEntries, name)
}

// Create implements vfs.Filesystem.
func (c *Client) Create(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32) (vfs.Attr, vfs.Handle, error) {
	c.cpu(p)
	din, err := c.dirInode(dir)
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	if name == "" || len(name) > vfs.MaxNameLen {
		return vfs.Attr{}, 0, vfs.ErrInvalid
	}
	if !canAccess(ctx, din.attr, 2) {
		return vfs.Attr{}, 0, vfs.ErrPerm
	}
	c.mutateDir(p, dir, len(din.entries), name)
	if _, ok := din.entries[name]; ok {
		return vfs.Attr{}, 0, vfs.ErrExist
	}
	in := c.srv.allocInode(c.node, vfs.TypeRegular, mode, ctx.UID, ctx.GID)
	in.attr.Mtime = p.Now()
	in.attr.Ctime = p.Now()
	din.entries[name] = in.attr.Ino
	din.attr.Mtime = p.Now()

	// The creator implicitly receives the new inode's block token and a
	// hot cache entry (no extra RPC: piggybacked on the create path).
	r := c.inodeResource(in.attr.Ino)
	c.srv.Tokens.GrantInline(p, c, r, lock.ModeExclusive)
	c.inoCache.Put(in.attr.Ino, struct{}{})
	c.markDirty(r, dirtyDurable)

	h := c.newHandle(in.attr.Ino, vfs.OpenWrite)
	return in.attr, h, nil
}

func (c *Client) newHandle(ino vfs.Ino, flags vfs.OpenFlags) vfs.Handle {
	h := c.nextH
	c.nextH++
	c.handles[h] = handleState{ino: ino, flags: flags}
	return h
}

// Open implements vfs.Filesystem.
func (c *Client) Open(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	c.cpu(p)
	in, ok := c.srv.inodes[ino]
	if !ok {
		return 0, vfs.ErrNotExist
	}
	if in.attr.Type == vfs.TypeDir {
		return 0, vfs.ErrIsDir
	}
	// The mount layer does not follow symbolic links; opening one is an
	// error (uniform across all stacked file systems).
	if in.attr.Type == vfs.TypeSymlink {
		return 0, vfs.ErrInvalid
	}
	bit := uint32(4)
	if flags&(vfs.OpenWrite|vfs.OpenTrunc) != 0 {
		bit = 2
	}
	if !canAccess(ctx, in.attr, bit) {
		return 0, vfs.ErrPerm
	}
	c.attrAccess(p, in, flags&(vfs.OpenWrite|vfs.OpenTrunc) != 0)
	if flags&vfs.OpenTrunc != 0 {
		in.attr.Size = 0
		c.dropStripes(ino)
	}
	return c.newHandle(ino, flags), nil
}

// Release implements vfs.Filesystem: write-behind data is flushed so the
// file is visible cluster-wide on close.
func (c *Client) Release(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle) error {
	c.cpu(p)
	hs, ok := c.handles[h]
	if !ok {
		return vfs.ErrBadHandle
	}
	delete(c.handles, h)
	c.flushData(p, hs.ino)
	return nil
}

// Unlink implements vfs.Filesystem.
func (c *Client) Unlink(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) error {
	c.cpu(p)
	din, err := c.dirInode(dir)
	if err != nil {
		return err
	}
	if !canAccess(ctx, din.attr, 2) {
		return vfs.ErrPerm
	}
	c.mutateDir(p, dir, len(din.entries), name)
	ino, ok := din.entries[name]
	if !ok {
		return vfs.ErrNotExist
	}
	in := c.srv.inodes[ino]
	if in.attr.Type == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	delete(din.entries, name)
	din.attr.Mtime = p.Now()
	in.attr.Nlink--
	if in.attr.Nlink <= 0 {
		c.destroyInode(ino)
	}
	return nil
}

// destroyInode drops all bookkeeping for a deleted object. The block
// token may cover other live inodes, so it is kept; dirty state is
// tracked per block and conservatively retained.
func (c *Client) destroyInode(ino vfs.Ino) {
	delete(c.srv.inodes, ino)
	c.inoCache.Remove(ino)
	c.dropStripes(ino)
}

// Mkdir implements vfs.Filesystem.
func (c *Client) Mkdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32) (vfs.Attr, error) {
	c.cpu(p)
	din, err := c.dirInode(dir)
	if err != nil {
		return vfs.Attr{}, err
	}
	if name == "" || len(name) > vfs.MaxNameLen {
		return vfs.Attr{}, vfs.ErrInvalid
	}
	if !canAccess(ctx, din.attr, 2) {
		return vfs.Attr{}, vfs.ErrPerm
	}
	c.mutateDir(p, dir, len(din.entries), name)
	if _, ok := din.entries[name]; ok {
		return vfs.Attr{}, vfs.ErrExist
	}
	in := c.srv.mkdir(c.node, din, name, mode, ctx.UID, ctx.GID)
	din.attr.Mtime = p.Now()
	return in.attr, nil
}

// Rmdir implements vfs.Filesystem.
func (c *Client) Rmdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) error {
	c.cpu(p)
	din, err := c.dirInode(dir)
	if err != nil {
		return err
	}
	if !canAccess(ctx, din.attr, 2) {
		return vfs.ErrPerm
	}
	c.mutateDir(p, dir, len(din.entries), name)
	ino, ok := din.entries[name]
	if !ok {
		return vfs.ErrNotExist
	}
	child := c.srv.inodes[ino]
	if child.attr.Type != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	if len(child.entries) > 0 {
		return vfs.ErrNotEmpty
	}
	delete(din.entries, name)
	din.attr.Nlink--
	din.attr.Mtime = p.Now()
	delete(c.srv.inodes, ino)
	return nil
}

// Rename implements vfs.Filesystem. Directory tokens are taken in inode
// order so concurrent cross-directory renames cannot deadlock.
func (c *Client) Rename(p *sim.Proc, ctx vfs.Ctx, srcDir vfs.Ino, srcName string, dstDir vfs.Ino, dstName string) error {
	c.cpu(p)
	sd, err := c.dirInode(srcDir)
	if err != nil {
		return err
	}
	dd, err := c.dirInode(dstDir)
	if err != nil {
		return err
	}
	if !canAccess(ctx, sd.attr, 2) || !canAccess(ctx, dd.attr, 2) {
		return vfs.ErrPerm
	}
	first, second := srcDir, dstDir
	if first > second {
		first, second = second, first
	}
	c.ensureToken(p, dirResource(first), lock.ModeExclusive)
	if second != first {
		c.ensureToken(p, dirResource(second), lock.ModeExclusive)
	}
	c.mutateDir(p, srcDir, len(sd.entries), srcName)
	if srcDir != dstDir {
		c.mutateDir(p, dstDir, len(dd.entries), dstName)
	}
	ino, ok := sd.entries[srcName]
	if !ok {
		return vfs.ErrNotExist
	}
	if dstName == "" || len(dstName) > vfs.MaxNameLen {
		return vfs.ErrInvalid
	}
	moving := c.srv.inodes[ino]
	if existing, ok := dd.entries[dstName]; ok {
		if existing == ino {
			// POSIX no-op: same object under both names.
			return nil
		}
		tgt := c.srv.inodes[existing]
		if tgt.attr.Type == vfs.TypeDir {
			if moving.attr.Type != vfs.TypeDir {
				return vfs.ErrIsDir
			}
			if len(tgt.entries) > 0 {
				return vfs.ErrNotEmpty
			}
			dd.attr.Nlink--
			delete(c.srv.inodes, existing)
		} else {
			if moving.attr.Type == vfs.TypeDir {
				return vfs.ErrNotDir
			}
			tgt.attr.Nlink--
			if tgt.attr.Nlink <= 0 {
				c.destroyInode(existing)
			}
		}
	}
	delete(sd.entries, srcName)
	dd.entries[dstName] = ino
	if moving.attr.Type == vfs.TypeDir && srcDir != dstDir {
		sd.attr.Nlink--
		dd.attr.Nlink++
	}
	sd.attr.Mtime = p.Now()
	dd.attr.Mtime = p.Now()
	return nil
}

// Link implements vfs.Filesystem.
func (c *Client) Link(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, dir vfs.Ino, name string) (vfs.Attr, error) {
	c.cpu(p)
	din, err := c.dirInode(dir)
	if err != nil {
		return vfs.Attr{}, err
	}
	in, ok := c.srv.inodes[ino]
	if !ok {
		return vfs.Attr{}, vfs.ErrNotExist
	}
	if in.attr.Type == vfs.TypeDir {
		return vfs.Attr{}, vfs.ErrIsDir
	}
	if !canAccess(ctx, din.attr, 2) {
		return vfs.Attr{}, vfs.ErrPerm
	}
	c.mutateDir(p, dir, len(din.entries), name)
	if _, exists := din.entries[name]; exists {
		return vfs.Attr{}, vfs.ErrExist
	}
	c.attrAccess(p, in, true)
	din.entries[name] = ino
	in.attr.Nlink++
	din.attr.Mtime = p.Now()
	return in.attr, nil
}

// Symlink implements vfs.Filesystem.
func (c *Client) Symlink(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name, target string) (vfs.Attr, error) {
	c.cpu(p)
	din, err := c.dirInode(dir)
	if err != nil {
		return vfs.Attr{}, err
	}
	if !canAccess(ctx, din.attr, 2) {
		return vfs.Attr{}, vfs.ErrPerm
	}
	c.mutateDir(p, dir, len(din.entries), name)
	if _, exists := din.entries[name]; exists {
		return vfs.Attr{}, vfs.ErrExist
	}
	in := c.srv.allocInode(c.node, vfs.TypeSymlink, 0777, ctx.UID, ctx.GID)
	in.target = target
	in.attr.Size = int64(len(target))
	din.entries[name] = in.attr.Ino
	din.attr.Mtime = p.Now()
	return in.attr, nil
}

// Readlink implements vfs.Filesystem.
func (c *Client) Readlink(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino) (string, error) {
	c.cpu(p)
	in, ok := c.srv.inodes[ino]
	if !ok {
		return "", vfs.ErrNotExist
	}
	if in.attr.Type != vfs.TypeSymlink {
		return "", vfs.ErrInvalid
	}
	c.attrAccess(p, in, false)
	return in.target, nil
}

// Readdir implements vfs.Filesystem: reads every directory block.
func (c *Client) Readdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino) ([]vfs.DirEntry, error) {
	c.cpu(p)
	din, err := c.dirInode(dir)
	if err != nil {
		return nil, err
	}
	if !canAccess(ctx, din.attr, 4) {
		return nil, vfs.ErrPerm
	}
	c.ensureToken(p, dirResource(dir), lock.ModeShared)
	names := make([]string, 0, len(din.entries))
	for name := range din.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := make(map[dirBlockKey]bool)
	out := make([]vfs.DirEntry, 0, len(names))
	for _, name := range names {
		key := c.srv.dirBlockOf(dir, len(din.entries), name)
		if !seen[key] {
			seen[key] = true
			c.ensureDirBlock(p, dir, len(din.entries), name)
		}
		// The block fetch above may have slept: an entry unlinked or
		// renamed away meanwhile is no longer part of the listing.
		ino, ok := din.entries[name]
		if !ok {
			continue
		}
		out = append(out, vfs.DirEntry{Name: name, Ino: ino, Type: c.srv.inodes[ino].attr.Type})
	}
	return out, nil
}

// StatFS implements vfs.Filesystem.
func (c *Client) StatFS(p *sim.Proc, ctx vfs.Ctx) (vfs.Statfs, error) {
	c.cpu(p)
	var st vfs.Statfs
	netsim.Call(p, c.srv.net, c.host, c.srv.hosts[0], 64, 256, func(p *sim.Proc) struct{} {
		p.Sleep(c.srv.cfg.PFS.ServerCPUPerOp)
		st.Files, st.Dirs = c.srv.CountObjects()
		return struct{}{}
	})
	return st, nil
}
