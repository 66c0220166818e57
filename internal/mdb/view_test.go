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

// closurePanic runs fn inside a View (or, with write set, a
// Transaction) on a fresh database and returns the panic message it
// raised ("" if none).
func closurePanic(write bool, fn func(p *sim.Proc, tx *Tx, tbl *Table[int, string])) (msg string) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[int, string](db, "rows", DiscCopies)
	env.Spawn("t", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		run := db.View
		if write {
			run = db.Transaction
		}
		run(p, func(tx *Tx) { fn(p, tx, tbl) })
	})
	env.MustRun()
	return msg
}

func TestViewHandleIsReadOnly(t *testing.T) {
	for name, fn := range map[string]func(*sim.Proc, *Tx, *Table[int, string]){
		"Put":    func(p *sim.Proc, tx *Tx, tbl *Table[int, string]) { Put(tx, tbl, 1, "x") },
		"Delete": func(p *sim.Proc, tx *Tx, tbl *Table[int, string]) { Delete(tx, tbl, 1) },
	} {
		if msg := closurePanic(false, fn); !strings.Contains(msg, "write through a View") {
			t.Errorf("%s through a view handle: panic %q, want a write-through-View panic", name, msg)
		}
	}
}

// TestClosureYieldIsCaught: a view or transaction closure that lets the
// clock advance would straddle two instants — no longer a snapshot, no
// longer atomic — and so would one opened inside another.
func TestClosureYieldIsCaught(t *testing.T) {
	for _, write := range []bool{false, true} {
		msg := closurePanic(write, func(p *sim.Proc, tx *Tx, tbl *Table[int, string]) {
			Get(tx, tbl, 1)
			p.Sleep(time.Microsecond)
		})
		if !strings.Contains(msg, "yielded") {
			t.Errorf("yielding closure (write=%v): panic %q, want the yield to be caught", write, msg)
		}
		msg = closurePanic(write, func(p *sim.Proc, tx *Tx, tbl *Table[int, string]) {
			tx.db.View(p, func(*Tx) {})
		})
		if !strings.Contains(msg, "while another is open") {
			t.Errorf("nested closure (write=%v): panic %q, want the nesting to be caught", write, msg)
		}
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

// TestImportHandoffAtomicToViews: ImportHandoff once applied its
// records one sleep apart, which a reader off the transaction mutex
// would see as a half-imported batch. The batch must land at one
// instant, and — like a transaction — pay its per-record charge after
// releasing the mutex, so a writer arriving mid-charge does not wait.
func TestImportHandoffAtomicToViews(t *testing.T) {
	const rows = 64
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[int, string](db, "rows", DiscCopies)
	h := &Handoff{}
	for i := 0; i < rows; i++ {
		HandoffPut(h, tbl, i, "moved")
	}
	importAt := rows / 2 * db.opTime
	env.SpawnAfter("import", importAt, func(p *sim.Proc) { db.ImportHandoff(p, h) })
	// One viewer every half op time, from well before the import's
	// instant until well after its charge.
	partial, empty, full := 0, 0, 0
	for k := 0; k < 4*rows; k++ {
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
	env.SpawnAfter("writer", importAt+db.opTime, func(p *sim.Proc) { // arrive mid-charge
		db.Transaction(p, func(tx *Tx) { Get(tx, tbl, 0) })
		txnDone = p.Now()
	})
	env.MustRun()
	if partial != 0 {
		t.Fatalf("%d views saw a half-imported batch (%d empty, %d full)", partial, empty, full)
	}
	if empty < rows-1 || full < 2*rows {
		t.Fatalf("%d views before the batch and %d after: the storm did not straddle the import", empty, full)
	}
	if want := importAt + 2*db.opTime; txnDone != want {
		t.Fatalf("transaction started inside the import's charge finished at %v, want %v", txnDone, want)
	}
	if db.TxWait() != 0 {
		t.Fatalf("TxWait = %v, want 0: the import charged under the mutex", db.TxWait())
	}
}
