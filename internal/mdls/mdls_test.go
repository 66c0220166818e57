package mdls

import (
	"testing"
	"time"

	"cofs/internal/disk"
	"cofs/internal/mdb"
	"cofs/internal/params"
	"cofs/internal/sim"
)

const opTime = 10 * time.Microsecond

// open builds a database on an engine that compacts as soon as the
// journal holds minRecords records and four times the live rows.
func open(env *sim.Env, minRecords int) (*mdb.DB, *Engine, *mdb.Table[int, int]) {
	e := NewEngine(env)
	e.CompactMinRecords = minRecords
	db := mdb.NewWithEngine(env, disk.New(env, "mdls", params.Default().Disk), opTime, e)
	return db, e, mdb.NewTable[int, int](db, "rows", mdb.DiscCopies)
}

// TestAppendIsDurableWithoutFlushWindow: every commit's append lands
// before Commit returns, so a crash right after loses nothing — the
// backend has no deferred-flush window to lose.
func TestAppendIsDurableWithoutFlushWindow(t *testing.T) {
	env := sim.NewEnv(1)
	db, e, tbl := open(env, DefaultCompactMinRecords)
	env.Spawn("t", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			db.Transaction(p, func(tx *mdb.Tx) { mdb.Put(tx, tbl, i, i) })
		}
		if db.FlushedRecords() != db.WALLen() {
			t.Errorf("flushed %d of %d records after the last commit returned", db.FlushedRecords(), db.WALLen())
		}
		db.Crash()
		db.Recover(p)
		for i := 0; i < 8; i++ {
			if v, ok := tbl.Peek(i); !ok || v != i {
				t.Errorf("row %d after crash+recover: (%d, %v)", i, v, ok)
			}
		}
	})
	env.MustRun()
	if e.Appends != 8 || e.Compactions != 0 {
		t.Fatalf("appends %d, compactions %d, want 8 and 0", e.Appends, e.Compactions)
	}
}

// TestViewsReadThroughCompactionStall: compaction freezes the store's
// transactions for a whole checkpoint dump — this backend's structural
// cost. A snapshot read is off the transaction mutex (the store
// contract's View), so it must be served at its uncontended cost in the
// middle of the stall, while a transaction arriving with it waits the
// stall out; and the rewrite must not change what a view sees.
func TestViewsReadThroughCompactionStall(t *testing.T) {
	env := sim.NewEnv(1)
	db, e, tbl := open(env, 32)
	var stallEnd, viewEnd, viewed, written time.Duration
	var last, got [4]int
	env.Spawn("writer", func(p *sim.Proc) {
		// Overwrite 4 live rows until the journal is 32 records long and
		// 4x the live set: the commit that crosses the line compacts.
		for i := 0; e.Compactions == 0; i++ {
			db.Transaction(p, func(tx *mdb.Tx) {
				mdb.Put(tx, tbl, i%4, i)
				last[i%4] = i
			})
		}
		stallEnd = p.Now()
	})
	env.Spawn("reader", func(p *sim.Proc) {
		for !e.compacting {
			p.Sleep(opTime)
		}
		p.Sleep(opTime) // the compactor now holds the freeze
		env.Spawn("blocked-writer", func(p *sim.Proc) {
			start := p.Now()
			db.Transaction(p, func(tx *mdb.Tx) { mdb.Get(tx, tbl, 0) })
			written = p.Now() - start
		})
		start := p.Now()
		db.View(p, func(tx *mdb.Tx) {
			for k := range got {
				got[k], _ = mdb.Get(tx, tbl, k)
			}
		})
		viewEnd = p.Now()
		viewed = viewEnd - start
	})
	env.MustRun()
	if e.Compactions != 1 || e.CompactedRecords == 0 {
		t.Fatalf("compactions %d, compacted records %d: the stall never happened", e.Compactions, e.CompactedRecords)
	}
	if viewEnd >= stallEnd {
		t.Fatalf("view finished at %v, the stall at %v: the view did not run inside it", viewEnd, stallEnd)
	}
	if viewed != 4*opTime {
		t.Errorf("4-op view inside the compaction stall took %v, want %v", viewed, 4*opTime)
	}
	if written <= viewed || db.TxWait() == 0 {
		t.Errorf("transaction inside the stall took %v with %v of mutex wait: it should have waited the stall out",
			written, db.TxWait())
	}
	if got != last {
		t.Errorf("view inside the stall read %v, committed values are %v", got, last)
	}
	if db.Views != 1 {
		t.Errorf("Views = %d, want 1", db.Views)
	}
}
