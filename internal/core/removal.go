package core

import (
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// maxPendingRemovals bounds the underlying removals one node keeps in
// flight. An unlink that finds this many running waits for one of them
// to finish before it starts its own, so the backlog, and the work still
// running when a phase's last operation returns, stays bounded. It is
// the largest cap of a create_storm sweep whose removals all finish
// within 1 % of a phase's length after its last operation returns:
// 2 → 18.7 k ops/s, 4 → 20.9 k, 8 → 21.3 k but up to 4.2 % left
// running, 16 → 21.4 k and 12 % (docs/transactions.md).
const maxPendingRemovals = 4

// removal deletes one underlying file in the background. FS keeps a pool
// of them whose run funcs are bound once, and the kernel recycles the
// processes that run them (sim.Env.Go), so a warm unlink allocates
// nothing for its removal.
type removal struct {
	f     *FS
	upath string
	run   func(p *sim.Proc) // remove, bound at creation
}

// removeUnder deletes upath, the underlying file of an inode whose last
// name the service has just removed, without waiting for it: name first,
// object later. Once the service's Remove or Rename has committed, the
// file has no name and no mapping, and COFS owns the only map from
// virtual names to underlying paths (section III-C), so nothing can
// reach it any more. The caller waits only while the node has
// maxPendingRemovals removals in flight.
func (f *FS) removeUnder(p *sim.Proc, upath string) {
	f.removing.Acquire(p)
	var r *removal
	if n := len(f.removals); n > 0 {
		r, f.removals = f.removals[n-1], f.removals[:n-1]
	} else {
		r = &removal{f: f}
		r.run = r.remove
	}
	r.upath = upath
	p.Env().Go("cofs.remove", r.run)
}

// remove runs one removal. Nobody waits for its outcome, so a failed
// underlying unlink is only counted (FSStats.RemovalFailures, the
// core.removal_failures counter); it leaves an orphan, which Fsck
// reports, and the virtual namespace is already consistent. A file
// that is already gone is not a failure.
func (r *removal) remove(p *sim.Proc) {
	f := r.f
	if err := f.under.Unlink(p, f.underCtx(), r.upath); err != nil && err != vfs.ErrNotExist {
		f.Stats.RemovalFailures++
	}
	r.upath = ""
	f.removals = append(f.removals, r)
	f.removing.Release(p)
}

// DrainRemovals blocks p until every underlying removal the node has
// started has finished: until no removal holds a slot. A check of the
// underlying file system inside a live simulation (Fsck, say) waits on
// it first; after Run has returned there is nothing left to wait for.
func (f *FS) DrainRemovals(p *sim.Proc) { f.removing.WaitIdle(p) }

// DrainRemovals is FS.DrainRemovals for every node of the deployment.
func (d *Deployment) DrainRemovals(p *sim.Proc) {
	for _, fs := range d.FSs {
		fs.DrainRemovals(p)
	}
}
