package mdb

import (
	"cmp"
	"fmt"
	"math/rand"
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
// brute-force scan across random put/delete sequences: the bucket's rows
// and its count each match the scan, for one table operation each.
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
		tbl.AddIndex("b", func(v kv) uint64 { return uint64(v.Val % 4) }, byKey)
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
					var wantRows []kv
					for _, r := range SelectKeys(tx, tbl, func(k uint8, v kv) bool { return uint64(v.Val%4) == bucket }) {
						wantRows = append(wantRows, r.Val)
					}
					slices.SortFunc(wantRows, byKey)
					before := tx.ops
					rows := readIndex(tx, tbl, "b", bucket)
					n := IndexRead(tx, tbl, "b", bucket).Len()
					if tx.ops != before+2 || n != len(wantRows) || !slices.Equal(rows, wantRows) {
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

// TestOrderedIndexMatchesSortOnRead holds the ordered index to the
// listing it replaced — a bucket's rows collected and sorted on read —
// on buckets large enough to split chunks and to empty them: each seed
// fills three buckets with 600-odd rows, then runs rounds of random
// puts (new keys, rewrites and moves between buckets), deletes, range
// deletes that empty whole chunks, crashes with log replay, and
// checkpoints. After every round each bucket's view must equal the
// sorted scan, and every run must keep its chunk invariants.
func TestOrderedIndexMatchesSortOnRead(t *testing.T) {
	type kv struct {
		Key    uint16
		Bucket uint8
	}
	byKey := func(a, b kv) int { return cmp.Compare(a.Key, b.Key) }
	const buckets, keys = 3, 2048
	maxChunks := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv(1)
		db, _ := newDB(env)
		tbl := NewTable[uint16, kv](db, "t", DiscCopies)
		tbl.AddIndex("b", func(v kv) uint64 { return uint64(v.Bucket) }, byKey)
		ix := tbl.indexes[0]
		ok := true
		check := func(p *sim.Proc, round int) {
			db.View(p, func(tx *Tx) {
				for b := uint64(0); b < buckets; b++ {
					var want []kv
					for _, r := range SelectKeys(tx, tbl, func(_ uint16, v kv) bool { return uint64(v.Bucket) == b }) {
						want = append(want, r.Val)
					}
					slices.SortFunc(want, byKey)
					if got := readIndex(tx, tbl, "b", b); !slices.Equal(got, want) {
						t.Errorf("seed %d round %d bucket %d: index holds %d rows, the sorted scan %d", seed, round, b, len(got), len(want))
						ok = false
					}
					r := ix.buckets[b]
					maxChunks = max(maxChunks, len(r.chunks))
					if err := runInvariants(r, byKey); err != nil {
						t.Errorf("seed %d round %d bucket %d: %v", seed, round, b, err)
						ok = false
					}
				}
				for b, r := range ix.buckets {
					if b >= buckets || r.n == 0 {
						t.Errorf("seed %d round %d: stray bucket %d of %d rows", seed, round, b, r.n)
						ok = false
					}
				}
			})
		}
		env.Spawn("t", func(p *sim.Proc) {
			// Fill: every key once, shuffled, dealt to the buckets in turn.
			perm := rng.Perm(keys)
			for i := 0; i < keys; i += 64 {
				db.Transaction(p, func(tx *Tx) {
					for j, k := range perm[i : i+64] {
						Put(tx, tbl, uint16(k), kv{uint16(k), uint8((i + j) % buckets)})
					}
				})
			}
			check(p, 0)
			for round := 1; round <= 12 && ok; round++ {
				switch rng.Intn(6) {
				case 0:
					db.Crash()
					db.Recover(p)
				case 1:
					db.Checkpoint(p)
				case 2:
					lo := rng.Intn(keys)
					db.Transaction(p, func(tx *Tx) {
						for k := lo; k < min(lo+300, keys); k++ {
							Delete(tx, tbl, uint16(k))
						}
					})
				default:
					db.Transaction(p, func(tx *Tx) {
						for range 400 {
							k := uint16(rng.Intn(keys + keys/4))
							if rng.Intn(4) == 0 {
								Delete(tx, tbl, k)
							} else {
								Put(tx, tbl, k, kv{k, uint8(rng.Intn(buckets))})
							}
						}
					})
				}
				check(p, round)
			}
		})
		env.MustRun()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
	if maxChunks < 5 {
		t.Fatalf("no run grew past %d chunks: the buckets never split", maxChunks)
	}
}

// runInvariants checks a run's shape: non-empty chunks of at most
// runChunk rows, strictly ordered within each chunk and across
// neighbours, whose lengths sum to its count.
func runInvariants[V any](r sortedRun[V], order func(a, b V) int) error {
	n := 0
	for c, ch := range r.chunks {
		if len(ch) == 0 || len(ch) > runChunk {
			return fmt.Errorf("chunk %d of %d holds %d rows", c, len(r.chunks), len(ch))
		}
		for i := 1; i < len(ch); i++ {
			if order(ch[i-1], ch[i]) >= 0 {
				return fmt.Errorf("chunk %d is out of order at row %d", c, i)
			}
		}
		if c > 0 {
			prev := r.chunks[c-1]
			if order(prev[len(prev)-1], ch[0]) >= 0 {
				return fmt.Errorf("chunk %d does not follow chunk %d", c, c-1)
			}
		}
		n += len(ch)
	}
	if n != r.n {
		return fmt.Errorf("chunks hold %d rows, the run counts %d", n, r.n)
	}
	return nil
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
