package store_test

import (
	"testing"
	"time"

	"cofs/internal/mdb"
	"cofs/internal/sim"
	"cofs/internal/store"
)

// MetadataStore.View is the read-only transaction every directory scan
// of the service runs on (docs/transactions.md, "Read transactions").
// Its contract is engine-independent, so — like the handoff protocol
// next door — it is held against every registered backend:
//
//   - instant-consistent: the closure sees the committed state of one
//     virtual instant; a transaction's write set lands whole or not at
//     all, however long the transaction takes to run;
//   - off the transaction mutex: it does not wait for a Transaction or a
//     Freeze, and no Transaction waits for it;
//   - one deferred charge: virtual time stands still inside the closure
//     and ops x OpTime elapses after it;
//   - counted in Views, not Transactions.

func TestViewContractAcrossBackends(t *testing.T) {
	for _, backend := range store.Names() {
		t.Run(backend, func(t *testing.T) {
			t.Run("InstantConsistent", func(t *testing.T) { viewInstantConsistent(t, backend) })
			t.Run("OffTheTransactionMutex", func(t *testing.T) { viewOffTheMutex(t, backend) })
			t.Run("OneDeferredCharge", func(t *testing.T) { viewOneDeferredCharge(t, backend) })
		})
	}
}

// viewInstantConsistent flips one logical row between two keys — delete
// one, put the other, in one transaction — while viewers started at
// every half op time read both keys. The flipping transaction spends
// four op times between its first read and its commit; a viewer that
// could see into that window would find both keys or neither.
func viewInstantConsistent(t *testing.T, backend string) {
	env := sim.NewEnv(1)
	s := openShard(t, backend, "view", env)
	const flips = 32
	done := false
	s.tbl.Bootstrap(0, "row")
	env.Spawn("flipper", func(p *sim.Proc) {
		for i := 0; i < flips; i++ {
			from, to := i%2, (i+1)%2
			s.db.Transaction(p, func(tx *mdb.Tx) {
				v, _ := mdb.Get(tx, s.tbl, from)
				mdb.Get(tx, s.tbl, to)
				mdb.Delete(tx, s.tbl, from)
				mdb.Put(tx, s.tbl, to, v)
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
				s.db.View(p, func(tx *mdb.Tx) {
					_, a = mdb.Get(tx, s.tbl, 0)
					_, b = mdb.Get(tx, s.tbl, 1)
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

// viewOffTheMutex: a 512-row scan and a transaction started under it do
// not delay each other, and a Freeze (mdls's compaction stall) does not
// stop a view.
func viewOffTheMutex(t *testing.T, backend string) {
	const rows = 512
	env := sim.NewEnv(1)
	s := openShard(t, backend, "view", env)
	var alone, beside, scan, frozen time.Duration
	env.Spawn("t", func(p *sim.Proc) {
		for i := 0; i < rows; i += 64 {
			s.db.Transaction(p, func(tx *mdb.Tx) {
				for j := i; j < i+64; j++ {
					mdb.Put(tx, s.tbl, j, val(j))
				}
			})
		}
		p.Sleep(time.Second) // let any background flush or compaction drain
		readOne := func(p *sim.Proc) time.Duration {
			start := p.Now()
			s.db.Transaction(p, func(tx *mdb.Tx) { mdb.Get(tx, s.tbl, 0) })
			return p.Now() - start
		}
		alone = readOne(p)
		waited := s.db.TxWait()

		env.Spawn("scanner", func(p *sim.Proc) {
			start := p.Now()
			s.db.View(p, func(tx *mdb.Tx) {
				for j := 0; j < rows; j++ {
					mdb.Get(tx, s.tbl, j)
				}
			})
			scan = p.Now() - start
		})
		p.Sleep(opTime) // the scan is now paying its charge
		beside = readOne(p)
		if got := s.db.TxWait() - waited; got != 0 {
			t.Errorf("transaction mutex waits grew by %v beside a view", got)
		}
		p.Sleep(time.Second)

		s.db.Freeze(p)
		env.Spawn("frozen-viewer", func(p *sim.Proc) {
			start := p.Now()
			s.db.View(p, func(tx *mdb.Tx) { mdb.Get(tx, s.tbl, 0) })
			frozen = p.Now() - start
		})
		p.Sleep(time.Second)
		s.db.Thaw(p)
	})
	env.MustRun()
	if beside != alone {
		t.Errorf("transaction beside a %d-row view took %v, alone %v", rows, beside, alone)
	}
	if scan != rows*opTime {
		t.Errorf("%d-row view beside a transaction took %v, want %v", rows, scan, rows*opTime)
	}
	if frozen != opTime {
		t.Errorf("view under a Freeze took %v, want %v (it must not wait for the Thaw)", frozen, opTime)
	}
}

// viewOneDeferredCharge: the clock does not move inside the closure,
// the whole charge follows it, and the view is counted as a view.
func viewOneDeferredCharge(t *testing.T, backend string) {
	env := sim.NewEnv(1)
	s := openShard(t, backend, "view", env)
	env.Spawn("t", func(p *sim.Proc) {
		txns, views := s.db.Transactions, s.db.Views
		start := p.Now()
		var inside time.Duration
		s.db.View(p, func(tx *mdb.Tx) {
			for j := 0; j < 7; j++ {
				mdb.Get(tx, s.tbl, j)
			}
			inside = p.Now()
		})
		if inside != start {
			t.Errorf("clock moved %v inside the closure", inside-start)
		}
		if got := p.Now() - start; got != 7*opTime {
			t.Errorf("7-op view cost %v, want %v", got, 7*opTime)
		}
		if s.db.Views != views+1 || s.db.Transactions != txns {
			t.Errorf("counters moved by (views %d, transactions %d), want (1, 0)",
				s.db.Views-views, s.db.Transactions-txns)
		}
	})
	env.MustRun()
}
