package mdb

import (
	"time"

	"cofs/internal/sim"
)

// Replica ships committed WAL records from a primary DB to a standby DB,
// mirroring Mnesia's multi-node table copies (the paper chose Mnesia for
// its "support for transactions and fault tolerance mechanisms", section
// III-C; the measured prototype ran a single service node, so
// replication is an extension — see DESIGN.md).
//
// Shipping is asynchronous: after every commit a ship is scheduled delay
// later (batching whatever accumulated), so the standby trails the
// primary by at most one delay window under load. A primary crash loses
// the unshipped tail on the standby exactly as the flush window loses
// the unflushed tail on the local disk.
type Replica struct {
	env   *sim.Env
	src   *DB
	dst   *DB
	delay time.Duration

	shipped  int  // src.wal records applied to dst
	inflight bool // a ship is scheduled
	resync   bool // primary checkpointed: dst must be rebuilt
	stopped  bool

	// applied is the primary's absolute commit sequence (DB.CommitSeq)
	// the standby has fully applied (see Lag). Zeroed while a resync
	// rebuild is mid-flight, so a half-rebuilt standby lags by
	// everything.
	applied int64

	// shipMu serializes shipping rounds: the apply loop yields, and a
	// Flush racing a scheduled round (or a round racing a long apply)
	// would otherwise ship the same batch twice — double-applying it,
	// duplicating the standby's log and inflating Ships/Records. Free
	// when uncontended; the loser of a race re-reads the cursors under
	// the lock and skips its now-empty round.
	shipMu *sim.Mutex

	// Ships counts shipping rounds; Records counts records shipped.
	Ships   int64
	Records int64
}

// Replicate attaches a standby to a primary. The standby must declare
// the same table names (typically by constructing the same schema); its
// existing contents are overwritten as records arrive. delay models the
// network + apply latency of one shipping round.
func Replicate(env *sim.Env, src, dst *DB, delay time.Duration) *Replica {
	r := &Replica{env: env, src: src, dst: dst, delay: delay,
		shipMu: sim.NewMutex(env, "mdb.ship")}
	src.replicas = append(src.replicas, r)
	// Records already in the primary's WAL (bootstrap rows) ship on the
	// first commit; nothing to do eagerly.
	r.pump()
	return r
}

// Stop detaches the replica: no further records ship. Call before
// promoting the standby.
func (r *Replica) Stop() { r.stopped = true }

// Flush ships everything pending synchronously, charging the apply to
// the calling process. Shard retirement uses it: a drained primary's
// final delete commits must reach the standby before shipping stops,
// or a later promotion would resurrect the migrated rows on a shard
// the settled map no longer routes to.
func (r *Replica) Flush(p *sim.Proc) {
	if r.stopped {
		return
	}
	r.ship(p)
}

// Lag reports how many committed records the standby is behind. It is
// computed in absolute commit sequences, not WAL offsets: a Checkpoint
// rewrites the log as a snapshot and a Crash truncates it, so with a
// resync pending the shipped offset no longer lines up with the log and
// diffing against it lies — after a checkpoint it under-reported the
// unshipped tail as near-zero (the snapshot can be shorter than the
// offset already shipped), and a Promote in that window returned a
// wrong lost-window count. The absolute sequence is continuous across
// both events (mdb.DB.seqBase), so CommitSeq minus the sequence the
// standby has applied counts exactly the commits it lacks; a standby
// ahead of a crash-truncated primary lags zero.
func (r *Replica) Lag() int {
	if n := r.src.CommitSeq() - r.applied; n > 0 {
		return int(n)
	}
	return 0
}

// pump schedules one shipping round if needed.
func (r *Replica) pump() {
	if r.stopped || r.inflight {
		return
	}
	if !r.resync && r.shipped >= r.src.wal.len() {
		return
	}
	r.inflight = true
	r.env.SpawnAfter("mdb.replica", r.delay, func(p *sim.Proc) {
		r.inflight = false
		if r.stopped {
			return
		}
		r.ship(p)
		r.pump()
	})
}

// ship applies the pending WAL tail to the standby, charging the apply
// cost to the shipping process.
func (r *Replica) ship(p *sim.Proc) {
	// One round at a time: a concurrent round (Flush vs the scheduled
	// timer) must wait, then re-read the cursors — a round whose work
	// was already shipped is a no-op and counts nothing.
	r.shipMu.Lock(p)
	defer r.shipMu.Unlock(p)
	if r.stopped {
		return
	}
	if r.resync {
		// The primary checkpointed: its WAL was rewritten as a
		// snapshot, so record offsets no longer line up. Rebuild the
		// standby from scratch. The applied sequence is zeroed until
		// the rebuild completes — the apply loop below yields, and a
		// half-rebuilt standby must not claim to have applied anything.
		for _, t := range r.dst.tables {
			t.clear()
		}
		r.dst.wal.reset(nil)
		r.shipped = 0
		r.applied = 0
		r.resync = false
	}
	target := r.src.wal.len()
	if r.shipped >= target {
		return
	}
	// Capture the applied sequence this round establishes before the
	// apply loop yields: a checkpoint rebase or crash truncation
	// mid-round changes the source's sequence accounting, but the
	// absolute sequence of the records this round set out to ship does
	// not move (a crash also re-flags resync, which rebuilds).
	seq := r.src.seqBase + int64(target)
	// Copy the batch out before the apply loop yields: a primary crash
	// during the sleeps below truncates (and zeroes) the source log, and
	// this round must still ship the records it set out to ship.
	batch := make([]walRec, 0, target-r.shipped)
	r.src.wal.each(r.shipped, target, func(rec walRec) { batch = append(batch, rec) })
	for _, rec := range batch {
		if t, ok := r.dst.tables[rec.table]; ok {
			t.applyWAL(rec)
		}
		if r.dst.opTime > 0 {
			p.Sleep(r.dst.opTime / 4) // bulk apply is cheaper than queries
		}
	}
	// The standby logs what it applied so its own recovery works.
	r.dst.wal.pushAll(batch)
	if r.dst.disk != nil {
		r.dst.disk.Write(p, 0, int64(len(batch))*64)
	}
	r.dst.flushed = r.dst.CommitSeq()
	r.shipped = target
	r.applied = seq
	r.Ships++
	r.Records += int64(len(batch))
}

// notifyCommit is called by the primary after each transaction commit.
func (db *DB) notifyCommit() {
	for _, r := range db.replicas {
		r.pump()
	}
}

// notifyCheckpoint is called by the primary after Checkpoint rewrote the
// WAL: replicas must resynchronize from the snapshot.
func (db *DB) notifyCheckpoint() {
	for _, r := range db.replicas {
		r.resync = true
		r.pump()
	}
}
