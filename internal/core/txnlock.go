package core

import (
	"cofs/internal/lock"
	"cofs/internal/reshard"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file is the metadata plane's side of the lock-ordered cross-shard
// transaction layer (docs/transactions.md). On a sharded plane every
// mutation — both the multi-shard protocols in twophase.go and the
// locally-committing Create/Link fast paths — opens a rowTxn over the
// inode and dentry rows it will read-depend on or write, holds the locks
// across its whole validate→commit span, and releases them at commit or
// abort. Conflicting mutations therefore serialize on their row
// footprints instead of interleaving between protocol phases, which is
// what closes the rename/remove races the unlocked protocol had; the
// canonical acquisition order (lock.RowKey.Less) makes the waiting
// deadlock-free by construction.
//
// Footprints are mode-aware (lock.Shared / lock.Exclusive): a mutation
// takes Exclusive only on the rows it writes structurally (dentries it
// inserts, deletes or re-points) or whose cross-row predicates its
// validate→commit gap freezes (a removed directory's emptiness), and
// Shared on rows it merely read-depends on — above all the parent
// directory's inode row, whose nlink/mtime bookkeeping is a single
// atomic read-modify-write inside one serialized DB transaction and
// needs no cross-phase exclusivity. Shared holders admit each other, so
// concurrent creates in one directory overlap their validate→commit
// spans (and their group commits) again instead of serializing on the
// parent's row.
//
// Rows a mutation only discovers by reading (a remove's child inode, a
// rename's replaced target) join the footprint through rowTxn.extend.
// A discovered row already held Shared is upgraded in place when it has
// no other sharer (free, no re-validation); otherwise — and for genuinely
// new keys, which may sort before rows already held — the whole
// footprint is released and re-acquired in canonical order, and extend
// tells the caller whether it ever waited: if it did, the validation
// reads that produced the discovery may be stale and must be re-run. On
// the uncontended path no acquisition waits, nothing re-runs and nothing
// is charged, so an uncontended mutation costs exactly its protocol
// messages (pinned absolutely by TestTxnLocksUncontendedCostIdentical,
// identical in both modes: exclusive-only and shared/exclusive).

// Row-lock kinds of the metadata plane.
const (
	lockKindInode lock.Kind = iota + 1
	lockKindDentry
)

// lockShard is the RowKey.Shard component of a row's lock key. It is
// the deploy-time strided placement, frozen forever: the component only
// namespaces the canonical acquisition order, and an order component
// that tracked the live (epoch-versioned) map would let two
// transactions spanning a migration sort the same rows differently —
// exactly what reintroduces deadlock. Ownership questions go to
// MDSCluster.Of; this is ordering only.
func (c *MDSCluster) lockShard(id vfs.Ino) int {
	return reshard.Owner(uint64(id), c.lockShards)
}

// inoKey names id's inode row in the canonical lock order.
func (s *Service) inoKey(id vfs.Ino) lock.RowKey {
	return lock.RowKey{Shard: s.cluster.lockShard(id), Kind: lockKindInode, ID: uint64(id)}
}

// dentKey names the (parent, name) dentry row in the canonical lock
// order; it lives on the parent directory's shard, like the row itself.
func (s *Service) dentKey(parent vfs.Ino, name string) lock.RowKey {
	return lock.RowKey{Shard: s.cluster.lockShard(parent), Kind: lockKindDentry, ID: uint64(parent), Name: name}
}

// rowTxn is one mutation's footprint in the plane's row-lock table. A
// nil rowTxn (unsharded plane) is a valid no-op: every method tolerates
// it, so call sites stay unconditional.
type rowTxn struct {
	s    *Service
	held []lock.Req
	// buf is the footprint's reusable backing array; held aliases it
	// unless an extend outgrew it. Owned by the cluster's txnFree pool
	// across transactions.
	buf []lock.Req
}

// staleProtocol reports whether an operation body dispatched down a
// single-shard fast path is executing on a plane that has since grown
// (the first instants of a Reshard from one shard): its mutation would
// run outside the row-lock discipline a live migration serializes
// against, so the body must bounce it with ErrWrongEpoch — the retry
// re-enters the method and takes the locked sharded path. The check
// runs inside the mutation's serialized table transaction, so it
// happens-before or happens-after a migration batch's transactions,
// never between them. Always false on a plane that never reshards.
func (s *Service) staleProtocol(t *rowTxn) bool {
	if t == nil && s.sharded() {
		s.cluster.rstats.Redirects++
		return true
	}
	return false
}

// lockRows opens a lock-ordered transaction over the requested rows,
// coordinated by shard s. It blocks (in virtual time, FIFO per row)
// while any key is incompatibly held by another mutation; the shard's
// worker thread is released while parked, the same non-blocking-server
// discipline as peerCall, so waiting transactions cannot starve the
// pool of the shard whose progress they depend on.
func (s *Service) lockRows(p *sim.Proc, reqs ...lock.Req) *rowTxn {
	if !s.sharded() {
		return nil
	}
	c := s.cluster
	var t *rowTxn
	if n := len(c.txnFree); n > 0 {
		t = c.txnFree[n-1]
		c.txnFree[n-1] = nil
		c.txnFree = c.txnFree[:n-1]
	} else {
		t = &rowTxn{}
	}
	t.s = s
	// Copying into the pooled buffer keeps the caller's variadic slice
	// from escaping; every mutation's footprint then sorts and dedups in
	// place in reused memory.
	t.held = lock.SortReqs(append(t.buf[:0], reqs...))
	s.acquireRows(p, t.held)
	return t
}

// acquireRows locks reqs under the worker-thread discipline above.
func (s *Service) acquireRows(p *sim.Proc, reqs []lock.Req) {
	if s.cluster.rowLocks.Acquire(p, reqs, func() { s.host.CPU.Release(p) }) {
		s.host.CPU.Acquire(p)
	}
}

// extend grows the transaction's footprint with rows discovered by its
// validation reads, or strengthens the mode of rows already held.
// Three cases, cheapest first:
//
//   - Every request is already covered (a re-validation rediscovered
//     the same rows, at the same or weaker mode): nothing is released,
//     so nothing can have raced — without this fast path two
//     conflicting mutations re-validating against each other would
//     hand the FIFO locks back and forth forever. Returns false.
//   - Only mode upgrades (no new keys) and every upgraded row has no
//     other sharer: each converts Shared→Exclusive in place
//     (lock.RowLocks.TryUpgrade), free and without releasing anything,
//     so prior validation reads still stand. Returns false.
//   - Otherwise the late keys cannot simply be locked in place — they
//     may sort before rows already held, and acquiring against the
//     canonical order is exactly what deadlocks — so the whole
//     footprint is released and re-acquired in canonical order with
//     the merged (strongest) modes. extend then reports whether any
//     re-acquisition waited: if it did, the world may have moved while
//     the transaction briefly held nothing, and the caller must re-run
//     its validation reads before trusting the discovery. When nothing
//     waited, no other process ran between release and re-acquire (the
//     simulation only switches processes at blocking points), so prior
//     reads still hold and the uncontended path re-validates nothing.
func (t *rowTxn) extend(p *sim.Proc, reqs ...lock.Req) bool {
	if t == nil || len(reqs) == 0 {
		return false
	}
	// A footprint discovers a row or two at a time: the buffers keep the
	// split off the heap.
	var freshBuf, upBuf [4]lock.Req
	fresh, upgrades := freshBuf[:0], upBuf[:0]
	for _, r := range reqs {
		switch held, ok := t.holdMode(r.Key); {
		case !ok:
			fresh = append(fresh, r)
		case held < r.Mode:
			upgrades = append(upgrades, r)
		}
	}
	if len(fresh) == 0 && len(upgrades) == 0 {
		return false
	}
	if len(fresh) == 0 {
		// Convert only if every row can upgrade in place (pre-checked,
		// so a refusal late in the batch cannot strand — and count —
		// conversions that are released again microseconds later).
		// A row we hold Shared blocks its upgrade iff another sharer
		// is present; nothing can change between check and convert,
		// neither call blocks.
		inPlace := true
		for _, r := range upgrades {
			if sh, ex := t.s.cluster.rowLocks.Holders(r.Key); !ex && sh > 1 {
				inPlace = false
				break
			}
		}
		if inPlace {
			for _, r := range upgrades {
				t.s.cluster.rowLocks.TryUpgrade(p, r.Key)
				t.setHoldMode(r.Key, r.Mode)
			}
			return false
		}
		// Another sharer holds an upgraded row: fall through to the
		// release-and-reacquire path.
	}
	t.s.cluster.rowLocks.Release(p, t.held)
	t.held = lock.SortReqs(append(t.held, reqs...))
	waited := t.s.cluster.rowLocks.Acquire(p, t.held, func() { t.s.host.CPU.Release(p) })
	if waited {
		t.s.host.CPU.Acquire(p)
	}
	return waited
}

// holdMode returns the mode key is held with, if it is in the footprint.
func (t *rowTxn) holdMode(key lock.RowKey) (lock.Mode, bool) {
	for _, h := range t.held {
		if h.Key == key {
			return h.Mode, true
		}
	}
	return 0, false
}

// setHoldMode records an in-place upgrade in the footprint.
func (t *rowTxn) setHoldMode(key lock.RowKey, m lock.Mode) {
	for i := range t.held {
		if t.held[i].Key == key {
			t.held[i].Mode = m
			return
		}
	}
}

// release drops every held row lock and returns the footprint to the
// cluster's pool. Commit and abort paths release identically; call
// sites defer it when the transaction opens. Each rowTxn is released
// exactly once (the nil-held guard makes a second call a no-op without
// touching the pool).
func (t *rowTxn) release(p *sim.Proc) {
	if t == nil || t.held == nil {
		return
	}
	c := t.s.cluster
	c.rowLocks.Release(p, t.held)
	// Keep whichever backing array the footprint ended up in — an extend
	// may have grown it — for the next transaction.
	t.buf = t.held[:0]
	t.held = nil
	t.s = nil
	c.txnFree = append(c.txnFree, t)
}
