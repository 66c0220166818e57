package mdb

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"cofs/internal/disk"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// TestConcurrentTransactionsSerializable is the transaction contract:
// it starts read-modify-write transactions from several processes at
// randomized instants — a tenth of an op time apart, so arrivals
// collide at the same instant and land inside each other's deferred
// charges — and checks the result equals some serial execution: for
// pure counter increments that means no lost update, the total equals
// the number of increments. No transaction waits for another: each
// finishes two op times after it started. Each is counted once, as a
// transaction. (A closure that yields is caught by
// TestClosureYieldIsCaught.)
func TestConcurrentTransactionsSerializable(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) > 24 {
			delays = delays[:24]
		}
		env := sim.NewEnv(1)
		db, _ := newDB(env)
		tbl := NewTable[int, int](db, "ctr", RamCopies)
		prompt := true
		for _, d := range delays {
			delay := time.Duration(d%32) * db.opTime / 10
			env.SpawnAfter("inc", delay, func(p *sim.Proc) {
				db.Transaction(p, func(tx *Tx) {
					v, _ := Get(tx, tbl, 0)
					Put(tx, tbl, 0, v+1)
				})
				prompt = prompt && p.Now() == delay+2*db.opTime
			})
		}
		env.MustRun()
		v, _ := tbl.Peek(0)
		counted := db.Transactions == int64(len(delays)) && db.Views == 0
		return v == len(delays) && prompt && counted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexMatchesBruteForce keeps a secondary index consistent with a
// brute-force scan across random put/delete sequences: the bucket's
// keys, its rows and its count each match the scan, for one table
// operation each.
func TestIndexMatchesBruteForce(t *testing.T) {
	type op struct {
		Key    uint8
		Bucket uint8
		Delete bool
	}
	// A row repeats its key, so the rows of a bucket have a total order.
	type kv struct{ Key, Val uint8 }
	byKey := func(a, b kv) int { return cmp.Compare(a.Key, b.Key) }
	f := func(ops []op) bool {
		env := sim.NewEnv(1)
		db, _ := newDB(env)
		tbl := NewTable[uint8, kv](db, "t", RamCopies)
		tbl.AddIndex("b", func(v kv) uint64 { return uint64(v.Val % 4) })
		ok := true
		env.Spawn("t", func(p *sim.Proc) {
			for _, o := range ops {
				o := o
				db.Transaction(p, func(tx *Tx) {
					if o.Delete {
						Delete(tx, tbl, o.Key)
					} else {
						Put(tx, tbl, o.Key, kv{o.Key, o.Bucket})
					}
				})
			}
			db.Transaction(p, func(tx *Tx) {
				for bucket := uint64(0); bucket < 4; bucket++ {
					var wantKeys []uint8
					var wantRows []kv
					for _, r := range SelectKeys(tx, tbl, func(k uint8, v kv) bool { return uint64(v.Val%4) == bucket }) {
						wantKeys = append(wantKeys, r.Key)
						wantRows = append(wantRows, r.Val)
					}
					slices.Sort(wantKeys)
					slices.SortFunc(wantRows, byKey)
					before := tx.ops
					keys := IndexScan(tx, tbl, "b", bucket)
					rows := IndexRead(tx, tbl, "b", bucket, byKey)
					n := IndexLen(tx, tbl, "b", bucket)
					slices.Sort(keys)
					if tx.ops != before+3 || n != len(wantKeys) || !slices.Equal(keys, wantKeys) || !slices.Equal(rows, wantRows) {
						ok = false
						return
					}
				}
			})
		})
		env.MustRun()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncFlushEventuallyDurable: with Mnesia-style async logging,
// committed data becomes durable once the background flush fires; a
// crash after the flush loses nothing.
func TestAsyncFlushEventuallyDurable(t *testing.T) {
	env := sim.NewEnv(1)
	d := disk.New(env, "mdb", params.Default().Disk)
	db := NewAsync(env, d, 10*time.Microsecond, 50*time.Millisecond)
	tbl := NewTable[int, int](db, "t", DiscCopies)
	env.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			k := i
			db.Transaction(p, func(tx *Tx) { Put(tx, tbl, k, k) })
		}
		// Commits return before any disk sync.
		if p.Now() > 10*time.Millisecond {
			t.Errorf("async commits waited on disk: %v", p.Now())
		}
		p.Sleep(200 * time.Millisecond) // let the flusher run
		db.Crash()
		db.Recover(p)
		for i := 0; i < 10; i++ {
			if _, ok := tbl.Peek(i); !ok {
				t.Errorf("row %d lost despite flush", i)
			}
		}
	})
	env.MustRun()
	if db.LogFlushes == 0 {
		t.Fatal("background flusher never ran")
	}
}
