package mdb

import "cofs/internal/sim"

// This file is the WAL export/import half of crash-consistent row
// migration (docs/resharding.md). A migrated row group used to start
// with no durability history on its target shard: the copy rode the
// target's asynchronous group commit, so a crash after the source
// deleted its rows could lose the group entirely. A Handoff closes that
// hole the way production stores do — each migration batch ships a
// checkpoint cursor over the moved rows, and the importer forces the
// records to its own log before acknowledging, so the source may not
// delete anything the plane cannot recover.

// Handoff is the durability history shipped with one migration batch: a
// checkpoint cursor over the moved row set — one compacted put record
// per live row, exactly the image a Checkpoint of the source would have
// dumped for those rows. Compaction (current value rather than
// full history) is safe because the rows are under the migration's
// exclusive locks: no writer can extend their history while the cursor
// is in flight.
type Handoff struct {
	recs []walRec
}

// Len returns the number of records in the cursor.
func (h *Handoff) Len() int { return len(h.recs) }

// HandoffPut appends row (key, val) of table t to the cursor.
func HandoffPut[K comparable, V any](h *Handoff, t *Table[K, V], key K, val V) {
	h.recs = append(h.recs, t.rec(walPut, key, val))
}

// ImportHandoff applies the cursor to this database as one durable
// transaction and forces the log before returning — regardless of the
// asynchronous flush interval. The return is the acknowledgement the
// migration protocol rests on: once it arrives, the records survive any
// crash of this database, and the source may delete its copies the
// moment the ownership epoch installs.
//
// The imported records are staged: they are in the log (recovery must
// replay them) but excluded from OwnedWALLen until SealHandoff, because
// until the epoch installs the source still owns the rows. Importing is
// idempotent — a replayed batch overwrites the same keys with the same
// values — so a resumed migration may re-ship a batch whose first
// attempt crashed between the ack and the epoch install.
func (db *DB) ImportHandoff(p *sim.Proc, h *Handoff) {
	if h.Len() == 0 {
		return
	}
	db.Transactions++
	// The batch lands without yielding, like a transaction's write set,
	// so a snapshot read (View) sees all of it or none; its per-record
	// CPU cost follows as one charge.
	db.land(h.recs)
	db.staged += h.Len()
	db.pay(p, h.Len())
	db.Commits++
	db.trace.Begin(p, db.traceGroup, "wal.sync", -1)
	db.forceLog(p)
	db.trace.End(p)
	db.notifyCommit()
}

// SealHandoff marks n staged records as owned: the epoch that makes
// this database the rows' owner has installed. Clamped at zero so a
// Checkpoint racing between import and install (which already folded
// the staged records into the snapshot) cannot drive the counter
// negative.
func (db *DB) SealHandoff(n int) {
	db.staged -= n
	if db.staged < 0 {
		db.staged = 0
	}
}

// RetireHandoff marks n of this database's records as handed off: the
// rows they describe are owned elsewhere from the just-installed epoch
// on. The records stay in the log (the source's delete commits follow
// and supersede them); they just stop counting as this database's
// owned history.
func (db *DB) RetireHandoff(n int) {
	db.handedOff += n
}

// OwnedWALLen is the log length net of migration bookkeeping: records
// imported but not yet sealed by an epoch install (the source still
// owns those rows), and records whose rows were handed off to another
// shard. Summed across a plane it counts every handed-off record
// exactly once at every instant of a migration, which raw WALLen does
// not — between the import ack and the source delete both logs hold
// the rows' history.
func (db *DB) OwnedWALLen() int {
	n := db.wal.len() - db.staged - db.handedOff
	if n < 0 {
		// A crash truncated unflushed records the counters had already
		// accounted for; the counters re-zero at the next Checkpoint.
		return 0
	}
	return n
}
