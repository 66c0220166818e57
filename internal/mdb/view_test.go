package mdb

import (
	"strings"
	"testing"
	"time"

	"cofs/internal/sim"
)

// DB.View is the read-only transaction every directory scan of the
// service runs on (docs/transactions.md, "Read transactions"). Its
// contract:
//
//   - instant-consistent: the closure sees the committed state of one
//     virtual instant; a transaction's write set lands whole or not at
//     all, however long the transaction takes to run;
//   - it does not wait for a Transaction, and no Transaction waits for
//     it;
//   - one deferred charge: virtual time stands still inside the closure
//     and ops x opTime elapses after it, or nothing if it aborts;
//   - counted in Views, not Transactions.
//
// The rest of this file is misuse of the handle, and the one writer
// that used to apply records across sleeps.

func TestViewContract(t *testing.T) {
	t.Run("InstantConsistent", viewInstantConsistent)
	t.Run("BesideATransaction", viewBesideATransaction)
	t.Run("OneDeferredCharge", viewOneDeferredCharge)
}

// viewInstantConsistent flips one logical row between two keys — delete
// one, put the other, in one transaction — while viewers started at
// every half op time read both keys. The flipping transaction spends
// four op times between its first read and its commit; a viewer that
// could see into that window would find both keys or neither.
func viewInstantConsistent(t *testing.T) {
	env := sim.NewEnv(1)
	s := newShard(env)
	opTime := s.db.opTime
	const flips = 32
	done := false
	s.tbl.Bootstrap(0, "row")
	env.Spawn("flipper", func(p *sim.Proc) {
		for i := 0; i < flips; i++ {
			from, to := i%2, (i+1)%2
			s.db.Transaction(p, func(tx *Tx) {
				v, _ := Get(tx, s.tbl, from)
				Get(tx, s.tbl, to)
				Delete(tx, s.tbl, from)
				Put(tx, s.tbl, to, v)
			})
		}
		done = true
	})
	views, torn := 0, 0
	env.Spawn("viewers", func(p *sim.Proc) {
		for !done {
			p.Sleep(opTime / 2)
			env.Spawn("viewer", func(p *sim.Proc) {
				var a, b bool
				s.db.View(p, func(tx *Tx) {
					_, a = Get(tx, s.tbl, 0)
					_, b = Get(tx, s.tbl, 1)
				})
				views++
				if a == b {
					torn++
				}
			})
		}
	})
	env.MustRun()
	if views < 4*flips {
		t.Fatalf("%d views ran: the storm did not overlap the flips", views)
	}
	if torn != 0 {
		t.Fatalf("%d of %d views held both names or neither", torn, views)
	}
}

// viewBesideATransaction: a 512-row scan and a transaction started
// under it do not delay each other.
func viewBesideATransaction(t *testing.T) {
	const rows = 512
	env := sim.NewEnv(1)
	s := newShard(env)
	opTime := s.db.opTime
	var alone, beside, scan time.Duration
	env.Spawn("t", func(p *sim.Proc) {
		for i := 0; i < rows; i += 64 {
			s.db.Transaction(p, func(tx *Tx) {
				for j := i; j < i+64; j++ {
					Put(tx, s.tbl, j, val(j))
				}
			})
		}
		readOne := func(p *sim.Proc) time.Duration {
			start := p.Now()
			s.db.Transaction(p, func(tx *Tx) { Get(tx, s.tbl, 0) })
			return p.Now() - start
		}
		alone = readOne(p)
		env.Spawn("scanner", func(p *sim.Proc) {
			start := p.Now()
			s.db.View(p, func(tx *Tx) {
				for j := 0; j < rows; j++ {
					Get(tx, s.tbl, j)
				}
			})
			scan = p.Now() - start
		})
		p.Sleep(opTime) // the scan is now paying its charge
		beside = readOne(p)
	})
	env.MustRun()
	if beside != alone {
		t.Errorf("transaction beside a %d-row view took %v, alone %v", rows, beside, alone)
	}
	if scan != rows*opTime {
		t.Errorf("%d-row view beside a transaction took %v, want %v", rows, scan, rows*opTime)
	}
}

// viewOneDeferredCharge: the clock does not move inside the closure,
// the whole charge follows it, and the view is counted as a view.
func viewOneDeferredCharge(t *testing.T) {
	env := sim.NewEnv(1)
	s := newShard(env)
	env.Spawn("t", func(p *sim.Proc) {
		txns, views := s.db.Transactions, s.db.Views
		start := p.Now()
		var inside time.Duration
		s.db.View(p, func(tx *Tx) {
			for j := 0; j < 7; j++ {
				Get(tx, s.tbl, j)
			}
			inside = p.Now()
		})
		if inside != start {
			t.Errorf("clock moved %v inside the closure", inside-start)
		}
		if got, want := p.Now()-start, 7*s.db.opTime; got != want {
			t.Errorf("7-op view cost %v, want %v", got, want)
		}
		if s.db.Views != views+1 || s.db.Transactions != txns {
			t.Errorf("counters moved by (views %d, transactions %d), want (1, 0)",
				s.db.Views-views, s.db.Transactions-txns)
		}
	})
	env.MustRun()
}

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

// TestImportHandoffAtomicToViews: ImportHandoff once applied its
// records one sleep apart, which a snapshot reader would see as a
// half-imported batch. The batch must land at one instant, and — like a
// transaction — pay its per-record charge after landing, so a writer
// arriving mid-charge does not wait.
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
}
