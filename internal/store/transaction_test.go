package store_test

import (
	"strings"
	"testing"
	"time"

	"cofs/internal/mdb"
	"cofs/internal/mdls"
	"cofs/internal/sim"
	"cofs/internal/store"
)

// MetadataStore.Transaction is the read-write transaction every
// mutation of the service commits through (docs/transactions.md, "The
// store's two transaction kinds"). Like the view contract next door it
// is engine-independent and held against every registered backend:
//
//   - atomic at an instant: the closure and its write set land at one
//     virtual instant, so read-modify-writes of one row never lose an
//     update, however many procs issue them at once;
//   - off the transaction mutex: concurrent transactions do not wait
//     for each other, and ops x OpTime elapses after the closure as one
//     charge;
//   - yield-free, enforced: a closure that lets the clock advance
//     panics;
//   - gated by Freeze: a transaction issued under a Freeze starts after
//     the Thaw, and the commit sequence stands still in between;
//   - and the only engine that freezes on the commit path (mdls, to
//     compact) is the only one whose writers wait.

func TestTransactionContractAcrossBackends(t *testing.T) {
	for _, backend := range store.Names() {
		t.Run(backend, func(t *testing.T) {
			t.Run("AtomicAtAnInstant", func(t *testing.T) { txAtomicAtAnInstant(t, backend) })
			t.Run("OffTheTransactionMutex", func(t *testing.T) { txOffTheMutex(t, backend) })
			t.Run("YieldingClosurePanics", func(t *testing.T) { txYieldPanics(t, backend) })
			t.Run("FreezeGatesWriters", func(t *testing.T) { txFreezeGates(t, backend) })
			t.Run("OnlyCompactionStallsWriters", func(t *testing.T) { txCompactionStalls(t, backend) })
		})
	}
}

// ramTable adds a ram-copies counter table: transactions on it have no
// durable commit, so their latency is the op charge alone.
func ramTable(s shard) *mdb.Table[int, int] {
	return mdb.NewTable[int, int](s.db, "ctr", mdb.RamCopies)
}

func txAtomicAtAnInstant(t *testing.T, backend string) {
	const procs = 16
	env := sim.NewEnv(1)
	s := openShard(t, backend, "tx", env)
	ctr := ramTable(s)
	for i := 0; i < procs; i++ {
		env.Spawn("inc", func(p *sim.Proc) {
			s.db.Transaction(p, func(tx *mdb.Tx) {
				v, _ := mdb.Get(tx, ctr, 0)
				mdb.Put(tx, ctr, 0, v+1)
			})
		})
	}
	env.MustRun()
	if v, _ := ctr.Peek(0); v != procs {
		t.Fatalf("%d increments at one instant left the counter at %d", procs, v)
	}
}

func txOffTheMutex(t *testing.T, backend string) {
	env := sim.NewEnv(1)
	s := openShard(t, backend, "tx", env)
	ctr := ramTable(s)
	var ends [2]time.Duration
	for i := range ends {
		env.Spawn("w", func(p *sim.Proc) {
			s.db.Transaction(p, func(tx *mdb.Tx) {
				for j := 0; j < 8; j++ {
					mdb.Put(tx, ctr, 8*i+j, j)
				}
				if p.Now() != 0 {
					t.Errorf("clock moved %v inside the closure", p.Now())
				}
			})
			ends[i] = p.Now()
		})
	}
	env.MustRun()
	for i, end := range ends {
		if end != 8*opTime {
			t.Errorf("8-op transaction %d of two started together ended at %v, want %v", i, end, 8*opTime)
		}
	}
	if s.db.TxWait() != 0 {
		t.Errorf("TxWait = %v, want 0", s.db.TxWait())
	}
	if s.db.Transactions != 2 || s.db.Views != 0 {
		t.Errorf("counters (transactions %d, views %d), want (2, 0)", s.db.Transactions, s.db.Views)
	}
}

func txYieldPanics(t *testing.T, backend string) {
	env := sim.NewEnv(1)
	s := openShard(t, backend, "tx", env)
	var msg string
	env.Spawn("t", func(p *sim.Proc) {
		defer func() { msg, _ = recover().(string) }()
		s.db.Transaction(p, func(tx *mdb.Tx) {
			mdb.Get(tx, s.tbl, 0)
			p.Sleep(time.Microsecond)
			mdb.Put(tx, s.tbl, 0, "late")
		})
	})
	env.MustRun()
	if !strings.Contains(msg, "yielded") {
		t.Fatalf("sleeping transaction closure: panic %q, want the yield to be caught", msg)
	}
}

func txFreezeGates(t *testing.T, backend string) {
	env := sim.NewEnv(1)
	s := openShard(t, backend, "tx", env)
	const frozenFor = time.Millisecond
	var started time.Duration
	env.Spawn("freezer", func(p *sim.Proc) {
		s.db.Freeze(p)
		seq := s.db.CommitSeq()
		env.Spawn("writer", func(p *sim.Proc) {
			s.db.Transaction(p, func(tx *mdb.Tx) {
				started = p.Now()
				mdb.Put(tx, s.tbl, 0, val(0))
			})
		})
		p.Sleep(frozenFor)
		if got := s.db.CommitSeq(); got != seq {
			t.Errorf("commit sequence moved %d -> %d under a Freeze", seq, got)
		}
		s.db.Thaw(p)
	})
	env.MustRun()
	if started != frozenFor {
		t.Errorf("transaction issued under a Freeze ran at %v, want the Thaw at %v", started, frozenFor)
	}
	if s.db.TxWait() != frozenFor {
		t.Errorf("TxWait = %v, want %v", s.db.TxWait(), frozenFor)
	}
	if _, ok := s.tbl.Peek(0); !ok {
		t.Error("the gated transaction never committed")
	}
}

// txCompactionStalls overwrites four rows until a log-structured engine
// would have compacted, while a second proc keeps issuing ram-only
// transactions (no durable commit, so it never queues on an engine's
// journal): it waits exactly where the engine froze the store to
// rewrite its journal, and nowhere else.
func txCompactionStalls(t *testing.T, backend string) {
	env := sim.NewEnv(1)
	s := openShard(t, backend, "tx", env)
	ctr := ramTable(s)
	e, compacts := s.db.Engine().(*mdls.Engine)
	if compacts {
		e.CompactMinRecords = 32
	}
	done := false
	env.Spawn("durable", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			s.db.Transaction(p, func(tx *mdb.Tx) { mdb.Put(tx, s.tbl, i%4, val(i)) })
		}
		done = true
	})
	env.Spawn("ram", func(p *sim.Proc) {
		for !done {
			s.db.Transaction(p, func(tx *mdb.Tx) { mdb.Get(tx, ctr, 0) })
		}
	})
	env.MustRun()
	if compacts && e.Compactions == 0 {
		t.Fatal("the storm never triggered a compaction")
	}
	if stalled := s.db.TxWait() > 0; stalled != compacts {
		t.Errorf("TxWait = %v with a compacting engine = %v: writers must wait in a compaction stall and only there",
			s.db.TxWait(), compacts)
	}
}
