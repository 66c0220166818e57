package mdb

import (
	"strings"
	"testing"
	"time"

	"cofs/internal/sim"
)

// The cross-backend half of the View contract (instant-consistent, off
// the transaction mutex, one deferred charge) lives in
// internal/store/view_test.go. This file holds the hazards that need
// package access: misuse of the handle, and the one writer that used to
// apply records across sleeps.

// viewPanic runs fn inside a View on a fresh database and returns the
// panic message it raised ("" if none).
func viewPanic(fn func(p *sim.Proc, tx *Tx, tbl *Table[int, string])) (msg string) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[int, string](db, "rows", DiscCopies)
	env.Spawn("t", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		db.View(p, func(tx *Tx) { fn(p, tx, tbl) })
	})
	env.MustRun()
	return msg
}

func TestViewHandleIsReadOnly(t *testing.T) {
	for name, fn := range map[string]func(*sim.Proc, *Tx, *Table[int, string]){
		"Put":    func(p *sim.Proc, tx *Tx, tbl *Table[int, string]) { Put(tx, tbl, 1, "x") },
		"Delete": func(p *sim.Proc, tx *Tx, tbl *Table[int, string]) { Delete(tx, tbl, 1) },
	} {
		if msg := viewPanic(fn); !strings.Contains(msg, "write through a View") {
			t.Errorf("%s through a view handle: panic %q, want a write-through-View panic", name, msg)
		}
	}
}

func TestViewCatchesYieldingClosure(t *testing.T) {
	msg := viewPanic(func(p *sim.Proc, tx *Tx, tbl *Table[int, string]) {
		Get(tx, tbl, 1)
		p.Sleep(time.Microsecond) // the snapshot would straddle two instants
	})
	if !strings.Contains(msg, "yielded") {
		t.Fatalf("yielding view closure: panic %q, want the yield to be caught", msg)
	}
}

func TestAbortOutsideViewPanics(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	var msg string
	env.Spawn("t", func(p *sim.Proc) {
		defer func() { msg, _ = recover().(string) }()
		db.Transaction(p, func(tx *Tx) { tx.Abort() })
	})
	env.MustRun()
	if !strings.Contains(msg, "Abort outside a View") {
		t.Fatalf("Abort in a transaction: panic %q", msg)
	}
}

// TestViewAbortChargesNothing: an aborted view costs no virtual time;
// the same reads, kept, cost ops x opTime.
func TestViewAbortChargesNothing(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[int, string](db, "rows", DiscCopies)
	env.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		db.View(p, func(tx *Tx) {
			Get(tx, tbl, 1)
			Get(tx, tbl, 2)
			tx.Abort()
		})
		if got := p.Now() - start; got != 0 {
			t.Errorf("aborted view cost %v, want 0", got)
		}
		db.View(p, func(tx *Tx) {
			Get(tx, tbl, 1)
			Get(tx, tbl, 2)
		})
		if got := p.Now() - start; got != 2*db.opTime {
			t.Errorf("2-op view cost %v, want %v", got, 2*db.opTime)
		}
	})
	env.MustRun()
}

// TestImportHandoffAtomicToViews: ImportHandoff used to apply its
// records one sleep apart, which a reader off the transaction mutex
// would see as a half-imported batch. The batch must land at one
// instant — at the same total cost, still under the mutex.
func TestImportHandoffAtomicToViews(t *testing.T) {
	const rows = 64
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[int, string](db, "rows", DiscCopies)
	h := &Handoff{}
	for i := 0; i < rows; i++ {
		HandoffPut(h, tbl, i, "moved")
	}
	var importStart time.Duration
	env.Spawn("import", func(p *sim.Proc) {
		importStart = p.Now()
		db.ImportHandoff(p, h)
	})
	// One viewer every half op time, from before the import takes the
	// mutex until after it releases it.
	partial, empty, full := 0, 0, 0
	for k := 0; k < 2*rows+4; k++ {
		env.SpawnAfter("viewer", time.Duration(k)*db.opTime/2, func(p *sim.Proc) {
			n := 0
			db.View(p, func(tx *Tx) {
				for i := 0; i < rows; i++ {
					if _, ok := Get(tx, tbl, i); ok {
						n++
					}
				}
			})
			switch n {
			case 0:
				empty++
			case rows:
				full++
			default:
				partial++
			}
		})
	}
	var txnDone time.Duration
	env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(db.opTime) // arrive mid-import
		db.Transaction(p, func(tx *Tx) { Get(tx, tbl, 0) })
		txnDone = p.Now()
	})
	env.MustRun()
	if partial != 0 {
		t.Fatalf("%d views saw a half-imported batch (%d empty, %d full)", partial, empty, full)
	}
	if full < 2*rows {
		t.Fatalf("only %d views saw the batch: none ran while the import held the mutex", full)
	}
	// Same total cost: the mutex is held for rows x opTime from the
	// import's start, so the queued transaction finishes one op later.
	if want := importStart + rows*db.opTime + db.opTime; txnDone != want {
		t.Fatalf("transaction queued behind the import finished at %v, want %v", txnDone, want)
	}
	if db.TxWait() != (rows-1)*db.opTime {
		t.Fatalf("TxWait = %v, want %v (the one queued transaction)", db.TxWait(), (rows-1)*db.opTime)
	}
}
