package core

import (
	"strconv"

	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// objectNames hands out the generations new underlying objects are
// named by (appendObjectName): one per client, never reused. Deploy
// builds one per deployment and every plane shares it (DeployStandby),
// so a client re-attached by a fresh NewFS, on whichever plane serves
// by then, never names an object a predecessor already used.
type objectNames struct{ gens uint64 }

// next returns a generation no client of the deployment has had.
func (n *objectNames) next() uint64 {
	n.gens++
	return n.gens
}

// objectNamer is one client's half of the naming: its generation, its
// count of creates and the buffer their paths are built in.
type objectNamer struct {
	gen, seq uint64
	buf      []byte
}

// appendObjectName appends to bucket directory b the name of a new
// file's underlying object: "/f<gen>.<seq>" in hex, where gen is the
// creating client's generation (objectNames) and seq counts that
// client's creates. No two clients of a deployment share a generation,
// so no two creates ever name the same object.
func appendObjectName(b []byte, gen, seq uint64) []byte {
	b = strconv.AppendUint(append(b, "/f"...), gen, 16)
	return strconv.AppendUint(append(b, '.'), seq, 16)
}

// objectPath names the underlying object of a new regular file created
// by ctx in virtual directory parent: the placement's bucket, spilled
// to a gNNN generation below it once this client has put
// MaxEntriesPerDir files there, then appendObjectName's name. Bucket
// generation 0 is the bucket directory itself (pre-created at install
// time by InitDirs), so a fresh process's first creates need no
// underlying mkdir at all.
//
// The path is built in the namer's buffer (Placement is an interface,
// so a stack buffer handed to it would escape anyway) and copied out
// once, before anything can yield: the string is the create's one
// allocation.
func (f *FS) objectPath(p *sim.Proc, ctx vfs.Ctx, parent vfs.Ino) (string, error) {
	n := &f.names
	b := f.place.AppendBucketDir(n.buf[:0], f.node, ctx.PID, parent, f.rng.Uint64())
	st, ok := f.buckets[string(b)]
	if !ok {
		st = &bucketState{}
		f.buckets[string(b)] = st
	}
	if f.cfg.MaxEntriesPerDir > 0 && st.count >= f.cfg.MaxEntriesPerDir {
		st.gen++
		st.count = 0
		f.Stats.BucketSpills++
	}
	st.count++
	if st.gen > 0 {
		b = appendPadded(append(b, "/g"...), uint64(st.gen), 10, 3)
	}
	dir := len(b)
	n.seq++
	b = appendObjectName(b, n.gen, n.seq)
	upath := string(b)
	n.buf = b[:0]
	if err := f.ensureUnderDir(p, upath[:dir]); err != nil {
		return "", err
	}
	return upath, nil
}

// ensureUnderDir creates the bucket directory chain on first use.
func (f *FS) ensureUnderDir(p *sim.Proc, dir string) error {
	if f.installed[dir] || f.madeDirs[dir] {
		return nil
	}
	if err := f.under.MkdirAll(p, f.underCtx(), dir, 0700); err != nil {
		return err
	}
	f.madeDirs[dir] = true
	return nil
}

// nameCommit commits one new file's name at the service while the
// creating process makes the file's underlying object (FS.Create). The
// object stays on the creator's process, so the creator's time is the
// object's plus whatever of the commit outlasts it. FS keeps a pool of
// them whose run funcs are bound once, and the kernel recycles the
// processes that run them (sim.Env.Go), so a warm create allocates
// nothing for its helper.
type nameCommit struct {
	f     *FS
	ctx   vfs.Ctx
	dir   vfs.Ino
	name  string
	mode  uint32
	upath string
	attr  vfs.Attr
	err   error
	done  bool
	wake  *sim.Cond         // signals the creator waiting in await
	run   func(p *sim.Proc) // commit, bound at construction
}

// startCommit sends the create of (dir, name), mapped to upath, from a
// helper process and returns at once; the caller collects the outcome
// with await.
func (f *FS) startCommit(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32, upath string) *nameCommit {
	var c *nameCommit
	if n := len(f.commits); n > 0 {
		c, f.commits = f.commits[n-1], f.commits[:n-1]
	} else {
		c = &nameCommit{f: f, wake: sim.NewCond(p.Env())}
		c.run = c.commit
	}
	c.ctx, c.dir, c.name, c.mode, c.upath, c.done = ctx, dir, name, mode, upath, false
	p.Env().Go("cofs.commit", c.run)
	return c
}

// commit runs one name commit.
func (c *nameCommit) commit(p *sim.Proc) {
	f := c.f
	c.attr, c.err = f.svc.Create(p, f.sess, c.ctx, c.dir, c.name, vfs.TypeRegular, c.mode, c.upath, "")
	c.done = true
	c.wake.Signal()
}

// await blocks p until the commit has finished, returns its outcome and
// puts the job back in the pool.
func (c *nameCommit) await(p *sim.Proc) (vfs.Attr, error) {
	for !c.done {
		c.wake.Wait(p)
	}
	attr, err := c.attr, c.err
	c.name, c.upath, c.attr, c.err = "", "", vfs.Attr{}, nil
	c.f.commits = append(c.f.commits, c)
	return attr, err
}

// undoCreate takes back the name of a create whose object failed: it
// removes (dir, name) only if the name still names ino, so a file
// another client renamed onto the name since the commit survives. The
// object was never made, so there is nothing underneath to remove.
// Should the undo fail, the name is what Fsck reports as Missing.
func (f *FS) undoCreate(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, ino vfs.Ino) {
	f.Stats.ServiceOps++
	if _, _, err := f.svc.Remove(p, f.sess, ctx, dir, name, false, ino); err == nil {
		f.attrs.drop(ino)
		f.attrs.drop(dir)
		f.attrs.dropDentry(dir, name)
	}
}

// leasedExisting reports whether a create of (dir, name) by ctx is sure
// to fail with ErrExist: the client holds a leased positive dentry for
// the name and leased attributes of dir showing ctx may write it. The
// service checks the directory before the name (Service.dirRow), so
// without the directory's attributes the create goes to the service.
func (f *FS) leasedExisting(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) bool {
	if _, negative, ok := f.attrs.lookupDentry(p, dir, name); !ok || negative {
		return false
	}
	e, ok := f.attrs.get(p, dir)
	return ok && e.attr.Type == vfs.TypeDir && canAccess(ctx, e.attr.UID, e.attr.GID, e.attr.Mode, 2)
}
