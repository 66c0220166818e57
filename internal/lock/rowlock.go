package lock

import (
	"fmt"
	"slices"
	"time"

	"cofs/internal/sim"
)

// This file extends the token manager's package with the row-lock table
// of the metadata plane's lock-ordered cross-shard transactions (see
// internal/core/twophase.go and docs/transactions.md). Where the token
// Manager above models GPFS's client-side delegation — tokens are
// *cached* by nodes and revoked over the network — a RowLocks table is
// a plain short-term lock map: a multi-shard mutation locks every row
// it will read-depend on or write, holds the locks across its
// validate→commit gap, and releases them at commit or abort. Nothing is
// cached and nothing is revoked; deadlock freedom comes from every
// acquisition batch following one global canonical order.
//
// Locks are mode-aware, GPFS-lock-compatibility-table style: a row can
// be held Shared by any number of transactions at once (read
// dependencies — above all the parent directory's inode row under
// concurrent creates), or Exclusive by one (rows whose bytes or
// cross-row predicates the transaction's validate→commit gap relies
// on). Grants are strictly FIFO per row, and a queued waiter blocks
// *new* grants of either mode, so a writer queued behind a crowd of
// sharers is never starved by late-arriving sharers.
//
// Cost model: conceptually each lock lives on the shard owning its row
// and acquisition piggybacks on protocol messages that already flow, so
// an uncontended Acquire charges nothing and never yields — an
// uncontended mutation costs exactly its protocol messages, in either
// mode. A contended Acquire parks the
// calling process FIFO until the holders release: the wait is real
// virtual time, surfaced in RowLockStats and (via the deployment
// counters) in "mds.lock-*".

// RowKey names one lockable metadata row. The zero Name means an inode
// row (ID is the inode id); a non-empty Name means a dentry row (ID is
// the parent directory's id). Kind namespaces the two so an inode id
// and a parent id never collide.
type RowKey struct {
	Shard int
	Kind  Kind
	ID    uint64
	Name  string
}

// Less is the canonical global lock order: shard id first, then kind,
// id, name. Every acquisition batch locks its keys in this order, which
// is what makes the protocol deadlock-free (docs/transactions.md).
func (k RowKey) Less(o RowKey) bool {
	if k.Shard != o.Shard {
		return k.Shard < o.Shard
	}
	if k.Kind != o.Kind {
		return k.Kind < o.Kind
	}
	if k.ID != o.ID {
		return k.ID < o.ID
	}
	return k.Name < o.Name
}

// Row locks reuse the package's token Mode: ModeShared admits any
// number of concurrent holders and protects read dependencies (the row
// cannot change — no exclusive holder can slip in — while the
// transaction's validate→commit gap is open); ModeExclusive admits a
// single holder and protects rows the transaction writes or whose
// multi-row predicates (a directory's emptiness) it freezes. Modes
// order by strength, so the stronger of two requests compares greater.

// Req is one row acquisition: the key plus the mode to hold it in.
type Req struct {
	Key  RowKey
	Mode Mode
}

// S requests key in ModeShared.
func S(k RowKey) Req { return Req{Key: k, Mode: ModeShared} }

// X requests key in ModeExclusive.
func X(k RowKey) Req { return Req{Key: k, Mode: ModeExclusive} }

// SortReqs sorts reqs canonically by key in place and merges
// duplicates, a duplicated key keeping its strongest requested mode.
// Acquire requires its input in this form.
func SortReqs(reqs []Req) []Req {
	// Duplicate keys may land in either relative order under this
	// unstable sort; the merge below collapses them to the strongest
	// mode either way, so the result is deterministic.
	slices.SortFunc(reqs, func(a, b Req) int {
		if a.Key.Less(b.Key) {
			return -1
		}
		if b.Key.Less(a.Key) {
			return 1
		}
		return 0
	})
	out := reqs[:0]
	for i, r := range reqs {
		if i > 0 && r.Key == out[len(out)-1].Key {
			if r.Mode > out[len(out)-1].Mode {
				out[len(out)-1].Mode = r.Mode
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// RowLockStats aggregates the table's counters.
type RowLockStats struct {
	// Acquires is the number of row locks taken (any mode).
	Acquires int64
	// SharedGrants is the number of acquisitions granted in Shared
	// mode.
	SharedGrants int64
	// Upgrades is the number of in-place Shared→Exclusive conversions.
	Upgrades int64
	// Conflicts is the number of acquisitions that found the row
	// incompatibly held (or queued) and had to wait.
	Conflicts int64
	// WaitTotal is the virtual time spent parked on held rows.
	WaitTotal time.Duration
}

// waiter is one parked acquisition. The releaser installs the waiter as
// a holder *before* signalling its gate, so a woken process owns the
// row the moment it resumes.
type waiter struct {
	p    *sim.Proc
	mode Mode
	gate *sim.Cond
}

// rowState is the live lock state of one row: at most one Exclusive
// holder, or any number of Shared holders, plus the FIFO queue. The
// sharer set is a small slice (typically one or two holders), and idle
// rowStates are recycled through the table's free list rather than
// re-materialized per transaction.
type rowState struct {
	excl    *sim.Proc
	sharers []*sim.Proc
	queue   []waiter
}

// compatible reports whether a new grant of mode can join the current
// holders. The queue must be consulted separately: any queued waiter
// blocks new grants (FIFO / no starvation).
func (st *rowState) compatible(mode Mode) bool {
	if st.excl != nil {
		return false
	}
	return mode == ModeShared || len(st.sharers) == 0
}

// holdsShared reports whether p is among the row's Shared holders.
func (st *rowState) holdsShared(p *sim.Proc) bool {
	for _, s := range st.sharers {
		if s == p {
			return true
		}
	}
	return false
}

// dropSharer removes p from the sharer set, reporting whether it held.
// Swap-removal is fine: nothing observes sharer order.
func (st *rowState) dropSharer(p *sim.Proc) bool {
	for i, s := range st.sharers {
		if s == p {
			last := len(st.sharers) - 1
			st.sharers[i] = st.sharers[last]
			st.sharers[last] = nil
			st.sharers = st.sharers[:last]
			return true
		}
	}
	return false
}

// RowLocks is a table of mode-aware FIFO row locks keyed by RowKey.
// Rows are materialized on first acquisition and garbage-collected when
// the last holder releases with nobody queued, so the table's size is
// bounded by the locks actually in flight.
type RowLocks struct {
	env  *sim.Env
	rows map[RowKey]*rowState
	// free recycles garbage-collected rowStates; a storm re-locks the
	// same hot rows constantly and should not re-allocate state each time.
	free []*rowState

	// OnGrant, when non-nil, is invoked at every grant instant — the
	// immediate grant of an uncontended Acquire, or the hand-over a
	// releaser performs for a parked waiter — with the holder and the
	// effective mode. It is an observability hook for tests: the
	// lock-schedule fuzz harness maintains its shadow ledger with it,
	// at the true grant instants (a parked waiter resumes only after
	// its grant is installed, so the caller side alone cannot observe
	// them exactly). Nil in production; the hook must not block.
	OnGrant func(holder *sim.Proc, key RowKey, mode Mode)

	// OnWait, when non-nil, is invoked on the waiter's own proc the
	// moment a contended acquisition resumes, with the key, the
	// effective mode and the virtual time the wait began. It is the
	// acquire-side observability hook: the obs plane turns each call
	// into a retroactive "lock.wait" span and a latency sample — safe
	// precisely because the waiter was parked for the whole
	// [start, now] window, so its trace track gained no events in
	// between. Nil in production; the hook must not block.
	OnWait func(waiter *sim.Proc, key RowKey, mode Mode, start time.Duration)

	Stats RowLockStats
}

// NewRowLocks creates an empty row-lock table.
func NewRowLocks(env *sim.Env) *RowLocks {
	return &RowLocks{env: env, rows: make(map[RowKey]*rowState)}
}

// Acquire locks every request, in order. reqs must be sorted
// canonically and duplicate-free (SortReqs); Acquire panics otherwise,
// because an out-of-order batch is exactly what reintroduces deadlock.
// onWait, if non-nil, is called once immediately before the first
// request that must park — callers use it to release a server worker
// thread so parked transactions cannot starve the pool whose progress
// they wait on. Acquire reports whether any lock had to wait: if it
// did, the caller's prior validation reads may be stale and must be
// re-run.
func (t *RowLocks) Acquire(p *sim.Proc, reqs []Req, onWait func()) bool {
	waited := false
	for i, r := range reqs {
		if i > 0 && !reqs[i-1].Key.Less(r.Key) {
			panic(fmt.Sprintf("lock: row acquisition out of canonical order: %v after %v", r.Key, reqs[i-1].Key))
		}
		st, ok := t.rows[r.Key]
		if !ok {
			if n := len(t.free); n > 0 {
				st = t.free[n-1]
				t.free[n-1] = nil
				t.free = t.free[:n-1]
			} else {
				st = &rowState{}
			}
			t.rows[r.Key] = st
		}
		t.Stats.Acquires++
		if len(st.queue) == 0 && st.compatible(r.Mode) {
			st.grant(p, r.Mode)
			if t.OnGrant != nil {
				t.OnGrant(p, r.Key, r.Mode)
			}
		} else {
			t.Stats.Conflicts++
			if !waited && onWait != nil {
				onWait()
			}
			waited = true
			start := t.env.Now()
			w := waiter{p: p, mode: r.Mode, gate: sim.NewCond(t.env)}
			st.queue = append(st.queue, w)
			// The releaser installs the holdership before signalling, so
			// waking up *is* owning the row.
			w.gate.Wait(p)
			t.Stats.WaitTotal += t.env.Now() - start
			if t.OnWait != nil {
				t.OnWait(p, r.Key, r.Mode, start)
			}
		}
		if r.Mode == ModeShared {
			t.Stats.SharedGrants++
		}
	}
	return waited
}

// grant installs p as a holder. The caller has checked compatibility.
func (st *rowState) grant(p *sim.Proc, mode Mode) {
	if mode == ModeExclusive {
		st.excl = p
	} else {
		st.sharers = append(st.sharers, p)
	}
}

// TryUpgrade converts p's Shared hold on key to Exclusive, in place and
// without waiting, iff p is the row's sole holder; it reports whether
// the upgrade happened. With other sharers present it returns false and
// the caller must fall back to releasing its whole footprint and
// re-acquiring it in canonical order with the stronger mode (two
// sharers both waiting to upgrade the same row would deadlock, and a
// parked upgrade of an already-held key breaks the ascending-order
// argument that makes the table deadlock-free — so the table never
// parks an upgrade). A successful upgrade deliberately jumps the FIFO
// queue: p already holds the row, so converting its grant takes nothing
// from any queued waiter and creates no wait cycle.
//
// Like an uncontended Acquire, TryUpgrade charges nothing. Calling it
// for a key p does not hold panics; a key already held Exclusive
// returns true unchanged.
func (t *RowLocks) TryUpgrade(p *sim.Proc, key RowKey) bool {
	st, ok := t.rows[key]
	if !ok {
		panic(fmt.Sprintf("lock: upgrade of unknown row %v", key))
	}
	if st.excl == p {
		return true
	}
	if !st.holdsShared(p) {
		panic(fmt.Sprintf("lock: upgrade of row %v not held by %q", key, p.Name()))
	}
	if len(st.sharers) > 1 {
		return false
	}
	st.dropSharer(p)
	st.excl = p
	t.Stats.Upgrades++
	return true
}

// Release unlocks every request's key (all must be held by p), in
// reverse canonical order, and garbage-collects rows left idle. Commit
// and abort paths release identically — the table keeps no transaction
// outcome state.
//
// Release is by key, not by mode: the table knows how p currently holds
// each row, so a key upgraded mid-transaction (TryUpgrade, or a
// re-acquisition with a stronger mode) is released exactly once, like
// any other key, whatever mode it was first acquired in. Releasing a
// key p does not hold — including a second release of an upgraded key —
// panics, as does releasing an unknown row.
func (t *RowLocks) Release(p *sim.Proc, reqs []Req) {
	for i := len(reqs) - 1; i >= 0; i-- {
		k := reqs[i].Key
		st, ok := t.rows[k]
		if !ok {
			panic(fmt.Sprintf("lock: release of unknown row %v", k))
		}
		if st.excl == p {
			st.excl = nil
		} else if !st.dropSharer(p) {
			panic(fmt.Sprintf("lock: release of row %v not held by %q", k, p.Name()))
		}
		t.wakeQueue(k, st)
		if st.excl == nil && len(st.sharers) == 0 && len(st.queue) == 0 {
			delete(t.rows, k)
			t.free = append(t.free, st)
		}
	}
}

// wakeQueue grants from the queue head while the head is compatible
// with the holders: one Exclusive waiter alone, or a run of consecutive
// Shared waiters (stopping at the first queued Exclusive, which
// preserves FIFO and keeps writers from starving). Each grant is
// installed before the waiter's gate is signalled.
func (t *RowLocks) wakeQueue(k RowKey, st *rowState) {
	for len(st.queue) > 0 {
		w := st.queue[0]
		if !st.compatible(w.mode) {
			return
		}
		// Copy-down pop keeps the queue's backing array, so a recycled
		// rowState re-parks waiters without reallocating.
		n := len(st.queue) - 1
		copy(st.queue, st.queue[1:])
		st.queue[n] = waiter{}
		st.queue = st.queue[:n]
		st.grant(w.p, w.mode)
		if t.OnGrant != nil {
			t.OnGrant(w.p, k, w.mode)
		}
		w.gate.Signal()
		if w.mode == ModeExclusive {
			return
		}
	}
}

// Held reports whether key is currently locked in any mode (tests).
func (t *RowLocks) Held(key RowKey) bool {
	st, ok := t.rows[key]
	return ok && (st.excl != nil || len(st.sharers) > 0)
}

// Holders reports key's current holders: the number of Shared holders
// and whether an Exclusive holder exists. Tests and the lock-schedule
// fuzz harness cross-check the mode compatibility invariant with it.
func (t *RowLocks) Holders(key RowKey) (shared int, exclusive bool) {
	st, ok := t.rows[key]
	if !ok {
		return 0, false
	}
	return len(st.sharers), st.excl != nil
}

// QueueLen returns the number of parked acquisitions on key (tests).
func (t *RowLocks) QueueLen(key RowKey) int {
	st, ok := t.rows[key]
	if !ok {
		return 0
	}
	return len(st.queue)
}

// Len returns the number of live lock rows (tests pin the release-time
// garbage collection with it).
func (t *RowLocks) Len() int { return len(t.rows) }
