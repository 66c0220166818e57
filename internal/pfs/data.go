package pfs

import (
	"cmp"
	"slices"
	"time"

	"cofs/internal/blockstore"
	"cofs/internal/lock"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// KindRange tokens cover a node's byte-range write access to one file.
// IOR-style disjoint-offset writers each acquire their own range token
// once, so steady-state shared-file data writes do not conflict (GPFS
// byte-range tokens behave this way after the initial splits).
const KindRange lock.Kind = 3

func (c *Client) rangeResource(ino vfs.Ino) lock.Resource {
	return lock.Resource{Kind: KindRange, ID: uint64(ino)<<8 | uint64(c.node&0xff)}
}

func (c *Client) memCopy(p *sim.Proc, n int64) {
	rate := c.srv.cfg.PFS.MemCopyRate
	if rate > 0 && n > 0 {
		p.Sleep(time.Duration(float64(n) / rate * float64(time.Second)))
	}
}

// Read implements vfs.Filesystem: page-pool hits run at memory speed,
// misses fetch striped data from the servers in parallel.
func (c *Client) Read(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle, off, n int64) (int64, error) {
	c.cpu(p)
	hs, ok := c.handles[h]
	if !ok {
		return 0, vfs.ErrBadHandle
	}
	in, ok := c.srv.inodes[hs.ino]
	if !ok {
		return 0, vfs.ErrNotExist
	}
	if off >= in.attr.Size {
		return 0, nil
	}
	if off+n > in.attr.Size {
		n = in.attr.Size - off
	}
	// Fetch what the file has in each stripe the pool holds too little
	// of: a short file or a file tail is not a full stripe.
	stripeSize := c.srv.Data.StripeSize()
	var stBuf [8]blockstore.Stripe
	var szBuf [8]int64
	missing, sizes := stBuf[:0], szBuf[:0]
	for idx, end := c.srv.Data.StripeRange(off, n); idx < end; idx++ {
		st := blockstore.Stripe{Ino: uint64(hs.ino), Idx: idx}
		valid := min(stripeSize, in.attr.Size-idx*stripeSize)
		if have, ok := c.pagepool.Get(st); ok && have >= valid {
			continue
		}
		missing = append(missing, st)
		sizes = append(sizes, valid)
	}
	if len(missing) > 0 {
		c.srv.Data.Read(p, c.host, missing, sizes)
		for i, st := range missing {
			c.pagepool.Put(st, sizes[i])
		}
	}
	c.memCopy(p, n)
	return n, nil
}

// Write implements vfs.Filesystem: write-back into the page pool; dirty
// data is flushed when the pool fills, on Fsync and on Release.
func (c *Client) Write(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle, off, n int64) (int64, error) {
	c.cpu(p)
	hs, ok := c.handles[h]
	if !ok {
		return 0, vfs.ErrBadHandle
	}
	if hs.flags&(vfs.OpenWrite|vfs.OpenTrunc) == 0 {
		return 0, vfs.ErrPerm
	}
	in, ok := c.srv.inodes[hs.ino]
	if !ok {
		return 0, vfs.ErrNotExist
	}
	// One-time byte-range token for this (node, file) pair.
	rr := c.rangeResource(hs.ino)
	if !c.tokens.Has(rr, lock.ModeExclusive) {
		c.Stats.TokenAcquires++
		c.srv.Tokens.Acquire(p, c, rr, lock.ModeExclusive)
	}
	stripeSize := c.srv.Data.StripeSize()
	for idx, end := c.srv.Data.StripeRange(off, n); idx < end; idx++ {
		st := blockstore.Stripe{Ino: uint64(hs.ino), Idx: idx}
		// The pool holds the stripe up to the highest byte written or
		// fetched; the dirty extent is tracked apart so a small file
		// does not write back a full stripe.
		stripeStart := idx * stripeSize
		hi := min(off+n, stripeStart+stripeSize)
		have, _ := c.pagepool.Peek(st)
		c.pagepool.Put(st, max(have, hi-stripeStart))
		c.dirtyStripes[st] = min(stripeSize, c.dirtyStripes[st]+hi-max(off, stripeStart))
	}
	c.memCopy(p, n)
	if off+n > in.attr.Size {
		in.attr.Size = off + n
	}
	in.attr.Mtime = p.Now()
	c.markDirty(c.inodeResource(hs.ino), dirtyAsync)
	if len(c.dirtyStripes) > c.pagepool.Capacity()/2 {
		c.flushAllData(p)
	}
	return n, nil
}

// Fsync implements vfs.Filesystem.
func (c *Client) Fsync(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle) error {
	c.cpu(p)
	hs, ok := c.handles[h]
	if !ok {
		return vfs.ErrBadHandle
	}
	c.flushData(p, hs.ino)
	return nil
}

// flushData writes back the dirty stripes of one file.
func (c *Client) flushData(p *sim.Proc, ino vfs.Ino) {
	var stBuf [8]blockstore.Stripe
	var szBuf [8]int64
	stripes, sizes := stBuf[:0], szBuf[:0]
	for st := range c.dirtyStripes {
		if st.Ino == uint64(ino) {
			stripes = append(stripes, st)
		}
	}
	if len(stripes) == 0 {
		return
	}
	sortStripes(stripes)
	for _, st := range stripes {
		sizes = append(sizes, c.dirtyStripes[st])
		delete(c.dirtyStripes, st)
	}
	c.Stats.DataFlushes++
	c.srv.Data.Write(p, c.host, stripes, sizes)
}

// flushAllData writes back every dirty stripe (pool pressure).
func (c *Client) flushAllData(p *sim.Proc) {
	var stripes []blockstore.Stripe
	var sizes []int64
	for st := range c.dirtyStripes {
		stripes = append(stripes, st)
	}
	if len(stripes) == 0 {
		return
	}
	sortStripes(stripes)
	for _, st := range stripes {
		sizes = append(sizes, c.dirtyStripes[st])
	}
	clear(c.dirtyStripes)
	c.Stats.DataFlushes++
	c.srv.Data.Write(p, c.host, stripes, sizes)
}

// sortStripes orders a flush by (file, stripe index) without letting a
// stack-backed slice escape.
func sortStripes(stripes []blockstore.Stripe) {
	slices.SortFunc(stripes, func(a, b blockstore.Stripe) int {
		return cmp.Or(cmp.Compare(a.Ino, b.Ino), cmp.Compare(a.Idx, b.Idx))
	})
}

// dropStripes discards cached and dirty data of a file (truncate/unlink).
func (c *Client) dropStripes(ino vfs.Ino) {
	for st := range c.dirtyStripes {
		if st.Ino == uint64(ino) {
			delete(c.dirtyStripes, st)
		}
	}
	c.pagepool.RemoveFunc(func(st blockstore.Stripe) bool { return st.Ino == uint64(ino) })
}
