package mdb

import (
	"sort"
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

	shipped  int  // src.wal records applied to dst; the primary keeps the rest
	inflight bool // a ship is scheduled
	resync   bool // primary checkpointed or crashed: dst must be rebuilt
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
	// The primary's log so far ships in the first round, from its
	// state if the host no longer holds the records.
	r.pump()
	return r
}

// Stop detaches the replica: no further records ship, and the primary
// keeps none for it. Call before promoting the standby.
func (r *Replica) Stop() {
	r.stopped = true
	r.src.fold()
}

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
// cost to the shipping process: a quarter of a table operation per
// logical record, then the standby's log write.
func (r *Replica) ship(p *sim.Proc) {
	// One round at a time: a concurrent round (Flush vs the scheduled
	// timer) must wait, then re-read the cursors — a round whose work
	// was already shipped is a no-op and counts nothing.
	r.shipMu.Lock(p)
	defer r.shipMu.Unlock(p)
	if r.stopped {
		return
	}
	src, dst := r.src, r.dst
	// A replica that has shipped keeps its records: only a resync or a
	// first round may find them folded.
	rebuild := r.resync || r.shipped < src.wal.lo
	if rebuild && !r.resync && r.shipped > 0 {
		panic("mdb: the primary folded records a replica had not shipped")
	}
	if rebuild && dst.crashed {
		dst.restore() // the rebuild lands on the standby's whole state
	}
	if r.resync {
		// The primary checkpointed or crashed: its WAL was rewritten or
		// truncated, so record offsets no longer line up. Rebuild the
		// standby from scratch. The applied sequence is zeroed until
		// the rebuild's charge completes — the loop below yields, and a
		// half-rebuilt standby must not claim to have applied anything.
		for _, t := range dst.tables {
			t.clear()
		}
		dst.wal.reset(0)
		r.shipped = 0
		r.applied = 0
		r.resync = false
	}
	target := src.wal.len()
	if r.shipped >= target {
		return
	}
	n := target - r.shipped
	// Capture the applied sequence this round establishes before the
	// apply loop yields: a checkpoint rebase or crash truncation
	// mid-round changes the source's sequence accounting, but the
	// absolute sequence of the records this round set out to ship does
	// not move (a crash also re-flags resync, which rebuilds).
	seq := src.seqBase + int64(target)
	if rebuild {
		// The records are gone — rewritten, truncated, or folded before
		// this replica attached — so the standby takes the primary's
		// state at target instead, at once: it serves no reads, so no
		// one sees the rows land ahead of the charge for them.
		src.copyState(dst)
		if dst.opTime > 0 {
			for range n {
				p.Sleep(dst.opTime / 4) // bulk apply is cheaper than queries
			}
		}
		dst.wal.reset(dst.wal.len() + n)
	} else {
		// Copy the batch out before the apply loop yields: a primary
		// crash during the sleeps below truncates the source log, and
		// this round must still ship the records it set out to ship.
		batch := make([]walRec, 0, n)
		src.wal.each(r.shipped, target, func(rec walRec) { batch = append(batch, rec) })
		for _, rec := range batch {
			if t, ok := dst.tables[rec.table]; ok {
				t.apply(rec)
			}
			if dst.opTime > 0 {
				p.Sleep(dst.opTime / 4)
			}
		}
		// The standby logs what it applied so its own recovery works.
		dst.wal.pushAll(batch)
	}
	// The standby's log is durable as it lands: a standby crash during
	// the write below keeps what it applied.
	dst.flushed = dst.CommitSeq()
	dst.fold()
	if dst.disk != nil {
		dst.disk.Write(p, 0, int64(n)*64)
	}
	r.shipped = target
	r.applied = seq
	r.Ships++
	r.Records += int64(n)
	src.fold()
}

// copyState puts this database's state at the log's end into dst's
// tables of the same names, table by table in name order: the rows —
// while crashed, the durable image — then, while crashed, the records
// that landed since the crash.
func (db *DB) copyState(dst *DB) {
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if d, ok := dst.tables[name]; ok {
			db.tables[name].copyTo(d)
		}
	}
	if db.crashed {
		db.wal.each(db.crashAt, db.wal.len(), func(rec walRec) {
			if d, ok := dst.tables[rec.table]; ok && d.storage() == DiscCopies {
				d.apply(rec)
			}
		})
	}
}

// notifyCommit is called by the primary after each transaction commit.
func (db *DB) notifyCommit() {
	for _, r := range db.replicas {
		r.pump()
	}
}

// notifyCheckpoint is called by the primary after Checkpoint rewrote the
// WAL: replicas must resynchronize from the primary's state.
func (db *DB) notifyCheckpoint() {
	for _, r := range db.replicas {
		r.resync = true
		r.pump()
	}
}
