package mdb

import (
	"fmt"
	"testing"

	"cofs/internal/sim"
)

// The WAL-handoff protocol (handoff.go) is what resharding and standby
// promotion rest on. This property test drives a two-shard migration
// through it — with crashes injected at each point a real migration can
// die — asserting at each step that the plane-wide sum of OwnedWALLen
// counts every record exactly once, and that the rows themselves land
// (and stay) where the epochs say they live.

const (
	seedRows = 24 // rows committed on the source before migrating
	moveRows = 8  // rows shipped in the handoff batch (keys 0..7)
)

// shard pairs a database with its row table.
type shard struct {
	db  *DB
	tbl *Table[int, string]
}

func newShard(env *sim.Env) shard {
	db, _ := newDB(env)
	return shard{db: db, tbl: NewTable[int, string](db, "rows", DiscCopies)}
}

// ownedSum is the plane-wide ownership accounting under test.
func ownedSum(shards ...shard) int {
	n := 0
	for _, s := range shards {
		n += s.db.OwnedWALLen()
	}
	return n
}

// get reads one row through a transaction.
func get(p *sim.Proc, s shard, key int) (string, bool) {
	var v string
	var ok bool
	s.db.Transaction(p, func(tx *Tx) {
		v, ok = Get(tx, s.tbl, key)
	})
	return v, ok
}

func val(key int) string { return fmt.Sprintf("row-%d", key) }

func TestHandoffExactlyOnce(t *testing.T) {
	env := sim.NewEnv(1)
	src := newShard(env)
	dst := newShard(env)
	check := func(step string, want int) {
		if got := ownedSum(src, dst); got != want {
			t.Errorf("%s: plane OwnedWALLen sum = %d, want %d (src %d, dst %d)",
				step, got, want, src.db.OwnedWALLen(), dst.db.OwnedWALLen())
		}
	}
	env.Spawn("migrate", func(p *sim.Proc) {
		// Seed the source with synchronous durable commits: the log is
		// flushed, so the injected crashes lose nothing.
		for i := 0; i < seedRows; i++ {
			src.db.Transaction(p, func(tx *Tx) {
				Put(tx, src.tbl, i, val(i))
			})
		}
		check("after seed", seedRows)

		// Ship the batch. Imported records are staged: recovery must
		// replay them, but ownership stays with the source until the
		// epoch installs.
		h := &Handoff{}
		for i := 0; i < moveRows; i++ {
			HandoffPut(h, src.tbl, i, val(i))
		}
		dst.db.ImportHandoff(p, h)
		check("after import", seedRows)
		if dst.db.OwnedWALLen() != 0 {
			t.Errorf("staged import owned by target: OwnedWALLen = %d, want 0",
				dst.db.OwnedWALLen())
		}

		// Crash point A: the target dies after acking the import but
		// before the epoch installs. The import was forced, so recovery
		// replays every staged record...
		dst.db.Crash()
		dst.db.Recover(p)
		for i := 0; i < moveRows; i++ {
			if v, ok := get(p, dst, i); !ok || v != val(i) {
				t.Fatalf("crash A: recovered target lost staged row %d (%q, %v)", i, v, ok)
			}
		}
		check("after crash A", seedRows)

		// ...and the resumed migration re-ships the batch. The replay
		// doubles the staged records, never the owned sum.
		dst.db.ImportHandoff(p, h)
		check("after replayed import", seedRows)

		// Epoch install: the target seals exactly one batch's worth and
		// the source retires the same count, in the same instant —
		// ownership transfers, nothing is counted twice.
		dst.db.SealHandoff(h.Len())
		src.db.RetireHandoff(h.Len())
		check("after seal+retire", seedRows)
		if dst.db.OwnedWALLen() != moveRows {
			t.Errorf("after seal: target OwnedWALLen = %d, want %d",
				dst.db.OwnedWALLen(), moveRows)
		}

		// The source deletes its copies. The delete records are new
		// owned history — the sum grows by exactly the batch.
		src.db.Transaction(p, func(tx *Tx) {
			for i := 0; i < moveRows; i++ {
				Delete(tx, src.tbl, i)
			}
		})
		check("after source delete", seedRows+moveRows)

		// Crash point B: the whole plane dies after the migration
		// settles. Both logs are flushed; recovery must land every row
		// exactly where the installed epoch says it lives.
		src.db.Crash()
		dst.db.Crash()
		src.db.Recover(p)
		dst.db.Recover(p)
		check("after plane crash", seedRows+moveRows)
		for i := 0; i < moveRows; i++ {
			if _, ok := get(p, src, i); ok {
				t.Errorf("crash B: source resurrected migrated row %d", i)
			}
			if v, ok := get(p, dst, i); !ok || v != val(i) {
				t.Errorf("crash B: target lost migrated row %d (%q, %v)", i, v, ok)
			}
		}
		for i := moveRows; i < seedRows; i++ {
			if v, ok := get(p, src, i); !ok || v != val(i) {
				t.Errorf("crash B: source lost unmigrated row %d (%q, %v)", i, v, ok)
			}
		}

		// Checkpoints compact each log to a row snapshot and re-zero the
		// migration bookkeeping: owned history and raw history coincide
		// again, one record per live row.
		src.db.Checkpoint(p)
		dst.db.Checkpoint(p)
		for _, s := range []struct {
			name string
			sh   shard
			rows int
		}{{"src", src, seedRows - moveRows}, {"dst", dst, moveRows}} {
			if got := s.sh.db.OwnedWALLen(); got != s.rows {
				t.Errorf("after checkpoint: %s OwnedWALLen = %d, want %d", s.name, got, s.rows)
			}
			if s.sh.db.OwnedWALLen() != s.sh.db.WALLen() {
				t.Errorf("after checkpoint: %s owned %d != raw %d",
					s.name, s.sh.db.OwnedWALLen(), s.sh.db.WALLen())
			}
		}
	})
	env.MustRun()
}
