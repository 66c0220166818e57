package mdb

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cofs/internal/disk"
	"cofs/internal/params"
	"cofs/internal/sim"
)

type row struct {
	Parent uint64
	Name   string
}

// byName orders rows of one parent bucket, whose names are unique.
func byName(a, b row) int { return strings.Compare(a.Name, b.Name) }

// readIndex collects a bucket's rows the way a listing does: into one
// slice sized by the view.
func readIndex[K comparable, V any](tx *Tx, t *Table[K, V], index string, bucket uint64) []V {
	rows := IndexRead(tx, t, index, bucket)
	out := make([]V, 0, rows.Len())
	for v := range rows.All() {
		out = append(out, v)
	}
	return out
}

func newDB(env *sim.Env) (*DB, *disk.Disk) {
	d := disk.New(env, "mdb", params.Default().Disk)
	return New(env, d, 10*time.Microsecond), d
}

func run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	env := sim.NewEnv(1)
	env.Spawn("t", fn)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetDelete(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[uint64, row](db, "dentry", DiscCopies)
	env.Spawn("t", func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) {
			Put(tx, tbl, 1, row{Parent: 0, Name: "a"})
			Put(tx, tbl, 2, row{Parent: 0, Name: "b"})
		})
		db.Transaction(p, func(tx *Tx) {
			if v, ok := Get(tx, tbl, 1); !ok || v.Name != "a" {
				t.Errorf("Get(1) = %+v %v", v, ok)
			}
			Delete(tx, tbl, 1)
			if _, ok := Get(tx, tbl, 1); ok {
				t.Error("read-own-delete failed")
			}
		})
		db.Transaction(p, func(tx *Tx) {
			if _, ok := Get(tx, tbl, 1); ok {
				t.Error("delete not applied")
			}
		})
	})
	env.MustRun()
	if tbl.Len() != 1 {
		t.Fatalf("len=%d", tbl.Len())
	}
}

func TestReadOwnWrites(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[uint64, row](db, "t", RamCopies)
	run2 := func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) {
			Put(tx, tbl, 7, row{Name: "x"})
			v, ok := Get(tx, tbl, 7)
			if !ok || v.Name != "x" {
				t.Errorf("tx does not see own write: %+v %v", v, ok)
			}
			Put(tx, tbl, 7, row{Name: "y"})
			v, _ = Get(tx, tbl, 7)
			if v.Name != "y" {
				t.Errorf("tx does not see latest write: %+v", v)
			}
		})
	}
	env.Spawn("t", run2)
	env.MustRun()
}

func TestSecondaryIndex(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[uint64, row](db, "dentry", RamCopies)
	tbl.AddIndex("parent", func(v row) uint64 { return uint64(v.Parent) }, byName)
	run(t, func(p *sim.Proc) {
		_ = p
	})
	env2 := sim.NewEnv(1)
	_ = env2
	env.Spawn("t", func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) {
			Put(tx, tbl, 1, row{Parent: 10, Name: "a"})
			Put(tx, tbl, 2, row{Parent: 10, Name: "b"})
			Put(tx, tbl, 3, row{Parent: 20, Name: "c"})
		})
		db.Transaction(p, func(tx *Tx) {
			rows := readIndex(tx, tbl, "parent", 10)
			if len(rows) != 2 || rows[0].Name != "a" || rows[1].Name != "b" {
				t.Errorf("index rows = %v", rows)
			}
			// Moving a row between buckets updates the index.
			Put(tx, tbl, 2, row{Parent: 20, Name: "b"})
		})
		db.Transaction(p, func(tx *Tx) {
			if got := readIndex(tx, tbl, "parent", 10); len(got) != 1 {
				t.Errorf("bucket 10 = %v", got)
			}
			if got := readIndex(tx, tbl, "parent", 20); len(got) != 2 || got[0].Name != "b" || got[1].Name != "c" {
				t.Errorf("bucket 20 = %v", got)
			}
			Delete(tx, tbl, 3)
		})
		db.Transaction(p, func(tx *Tx) {
			if got := readIndex(tx, tbl, "parent", 20); len(got) != 1 {
				t.Errorf("after delete bucket 20 = %v", got)
			}
		})
	})
	env.MustRun()
}

func TestSelect(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[int, string](db, "t", RamCopies)
	env.Spawn("t", func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) {
			for i := 0; i < 10; i++ {
				Put(tx, tbl, i, fmt.Sprintf("v%d", i))
			}
		})
		db.Transaction(p, func(tx *Tx) {
			odd := Select(tx, tbl, func(k int, v string) bool { return k%2 == 1 })
			if len(odd) != 5 {
				t.Errorf("select = %v", odd)
			}
		})
	})
	env.MustRun()
}

func TestDurableCommitChargesDisk(t *testing.T) {
	env := sim.NewEnv(1)
	db, d := newDB(env)
	ram := NewTable[int, int](db, "ram", RamCopies)
	disc := NewTable[int, int](db, "disc", DiscCopies)
	var ramT, discT time.Duration
	env.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		db.Transaction(p, func(tx *Tx) { Put(tx, ram, 1, 1) })
		ramT = p.Now() - start
		start = p.Now()
		db.Transaction(p, func(tx *Tx) { Put(tx, disc, 1, 1) })
		discT = p.Now() - start
	})
	env.MustRun()
	if discT <= ramT {
		t.Fatalf("durable tx %v not slower than ram tx %v", discT, ramT)
	}
	if d.Syncs == 0 {
		t.Fatal("no disk sync for durable commit")
	}
}

func TestGroupCommitBatchesTransactions(t *testing.T) {
	env := sim.NewEnv(1)
	db, d := newDB(env)
	tbl := NewTable[int, int](db, "t", DiscCopies)
	for i := 0; i < 8; i++ {
		k := i
		env.Spawn("w", func(p *sim.Proc) {
			db.Transaction(p, func(tx *Tx) { Put(tx, tbl, k, k) })
		})
	}
	env.MustRun()
	if d.Syncs > 4 {
		t.Fatalf("syncs=%d, want group commit to batch 8 txs into <=4", d.Syncs)
	}
}

func TestCrashRecovery(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	disc := NewTable[int, string](db, "disc", DiscCopies)
	ram := NewTable[int, string](db, "ram", RamCopies)
	env.Spawn("t", func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) {
			Put(tx, disc, 1, "durable")
			Put(tx, ram, 1, "volatile")
		})
		db.Crash()
		if disc.Len() != 0 || ram.Len() != 0 {
			t.Error("crash did not clear tables")
		}
		db.Recover(p)
		db.Transaction(p, func(tx *Tx) {
			if v, ok := Get(tx, disc, 1); !ok || v != "durable" {
				t.Errorf("durable row lost: %v %v", v, ok)
			}
			if _, ok := Get(tx, ram, 1); ok {
				t.Error("ram row resurrected")
			}
		})
	})
	env.MustRun()
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	disc := NewTable[int, int](db, "disc", DiscCopies)
	env.Spawn("t", func(p *sim.Proc) {
		// 20 updates over 5 keys: the log holds 20 records but a
		// checkpoint snapshot needs only 5.
		for i := 0; i < 20; i++ {
			k := i % 5
			v := i
			db.Transaction(p, func(tx *Tx) { Put(tx, disc, k, v) })
		}
		before := db.WALLen()
		db.Checkpoint(p)
		if db.WALLen() >= before {
			t.Errorf("wal %d -> %d: not truncated", before, db.WALLen())
		}
		db.Crash()
		db.Recover(p)
		db.Transaction(p, func(tx *Tx) {
			for i := 0; i < 5; i++ {
				if v, ok := Get(tx, disc, i); !ok || v != 15+i {
					t.Errorf("row %d = %v %v after checkpoint+recover", i, v, ok)
				}
			}
		})
	})
	env.MustRun()
}

func TestDirtyGet(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[int, int](db, "t", RamCopies)
	env.Spawn("t", func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 1, 42) })
		if v, ok := DirtyGet(p, tbl, 1); !ok || v != 42 {
			t.Errorf("dirty get = %v %v", v, ok)
		}
	})
	env.MustRun()
	if db.DirtyOps != 1 {
		t.Fatalf("dirty ops = %d", db.DirtyOps)
	}
}

// TestRecoveryEquivalenceProperty: after any sequence of committed
// transactions, crash+recover reproduces exactly the durable tables.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	type op struct {
		Key    uint8
		Val    uint8
		Delete bool
	}
	f := func(ops []op) bool {
		env := sim.NewEnv(1)
		db, _ := newDB(env)
		tbl := NewTable[uint8, uint8](db, "t", DiscCopies)
		want := map[uint8]uint8{}
		ok := true
		env.Spawn("t", func(p *sim.Proc) {
			for _, o := range ops {
				o := o
				db.Transaction(p, func(tx *Tx) {
					if o.Delete {
						Delete(tx, tbl, o.Key)
						delete(want, o.Key)
					} else {
						Put(tx, tbl, o.Key, o.Val)
						want[o.Key] = o.Val
					}
				})
			}
			db.Crash()
			db.Recover(p)
			if tbl.Len() != len(want) {
				ok = false
				return
			}
			for k, v := range want {
				if got, has := tbl.data[k]; !has || got != v {
					ok = false
					return
				}
			}
		})
		env.MustRun()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexIgnoresUncommittedWrites pins the documented sharp edge:
// the index serves committed rows, not the transaction's own pending
// write set. Callers must query before mutating.
func TestIndexIgnoresUncommittedWrites(t *testing.T) {
	env := sim.NewEnv(1)
	db := New(env, nil, 0)
	tbl := NewTable[int, row](db, "t", RamCopies)
	tbl.AddIndex("parent", func(v row) uint64 { return v.Parent }, byName)
	env.Spawn("t", func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) {
			Put(tx, tbl, 1, row{Parent: 7, Name: "a"})
			if got := IndexRead(tx, tbl, "parent", 7).Len(); got != 0 {
				t.Errorf("uncommitted put visible via index: %d rows", got)
			}
		})
		db.Transaction(p, func(tx *Tx) {
			if got := IndexRead(tx, tbl, "parent", 7).Len(); got != 1 {
				t.Errorf("committed put not visible via index: %d rows", got)
			}
			Delete(tx, tbl, 1)
			if got := IndexRead(tx, tbl, "parent", 7).Len(); got != 1 {
				t.Errorf("uncommitted delete visible via index: %d rows", got)
			}
		})
		db.Transaction(p, func(tx *Tx) {
			if got := IndexRead(tx, tbl, "parent", 7).Len(); got != 0 {
				t.Errorf("committed delete not applied to index: %d rows", got)
			}
		})
	})
	env.MustRun()
}

// TestIndexReadIgnoresUncommittedWrites is the same edge for IndexRead:
// inside a transaction it returns the committed rows of the bucket —
// not a row the transaction put, still a row it deleted, and a row it
// rewrote with its committed value.
func TestIndexReadIgnoresUncommittedWrites(t *testing.T) {
	env := sim.NewEnv(1)
	db := New(env, nil, 0)
	tbl := NewTable[int, row](db, "t", RamCopies)
	tbl.AddIndex("parent", func(v row) uint64 { return v.Parent }, byName)
	read := func(tx *Tx) []row { return readIndex(tx, tbl, "parent", 7) }
	env.Spawn("t", func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) {
			Put(tx, tbl, 1, row{Parent: 7, Name: "a"})
			if got := read(tx); len(got) != 0 {
				t.Errorf("uncommitted put visible via IndexRead: %v", got)
			}
		})
		db.Transaction(p, func(tx *Tx) {
			if got := read(tx); len(got) != 1 || got[0].Name != "a" {
				t.Errorf("committed put not visible via IndexRead: %v", got)
			}
			Put(tx, tbl, 1, row{Parent: 7, Name: "renamed"})
			Put(tx, tbl, 2, row{Parent: 7, Name: "b"})
			if got := read(tx); len(got) != 1 || got[0].Name != "a" {
				t.Errorf("uncommitted rewrite visible via IndexRead: %v", got)
			}
		})
		db.Transaction(p, func(tx *Tx) {
			Delete(tx, tbl, 1)
			if got := read(tx); len(got) != 2 || got[0].Name != "b" || got[1].Name != "renamed" {
				t.Errorf("uncommitted delete visible via IndexRead: %v", got)
			}
		})
		db.Transaction(p, func(tx *Tx) {
			if got := read(tx); len(got) != 1 || got[0].Name != "b" {
				t.Errorf("committed delete not applied to IndexRead: %v", got)
			}
		})
	})
	env.MustRun()
}

// TestIndexOrderMustBeTotal plants two rows of one bucket that the
// index's order ties: the second add must panic, naming the index,
// because a later remove of either row could drop the other.
func TestIndexOrderMustBeTotal(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[uint64, row](db, "dentry", RamCopies)
	byLen := func(a, b row) int { return len(a.Name) - len(b.Name) }
	tbl.AddIndex("parent", func(v row) uint64 { return v.Parent }, byLen)
	tbl.Bootstrap(1, row{Parent: 7, Name: "ab"})
	tbl.Bootstrap(2, row{Parent: 8, Name: "cd"}) // another bucket: no tie
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "index parent orders two rows of bucket 7 as equal") {
			t.Fatalf("tied add panicked with %q, want the tie named", msg)
		}
	}()
	tbl.Bootstrap(3, row{Parent: 7, Name: "ef"})
}

// fillBucket puts rows f0..f(n-1) under parent 7 of a fresh table, in
// the order perm gives, one transaction each.
func fillBucket(p *sim.Proc, db *DB, tbl *Table[uint64, row], perm []int) {
	for _, i := range perm {
		db.Transaction(p, func(tx *Tx) {
			Put(tx, tbl, uint64(100+i), row{Parent: 7, Name: "f" + strconv.Itoa(i)})
		})
	}
}

// TestIndexReadChargesOneOp: reading a bucket's rows is one table
// operation whatever the bucket holds — none, one or 512 rows — like
// Mnesia's index_read, and unlike a Get per key.
func TestIndexReadChargesOneOp(t *testing.T) {
	for _, n := range []int{0, 1, 512} {
		env := sim.NewEnv(1)
		db, _ := newDB(env)
		tbl := NewTable[uint64, row](db, "dentry", RamCopies)
		tbl.AddIndex("parent", func(v row) uint64 { return v.Parent }, byName)
		env.Spawn("t", func(p *sim.Proc) {
			fillBucket(p, db, tbl, rand.New(rand.NewSource(1)).Perm(n))
			var rows []row
			start := p.Now()
			db.View(p, func(tx *Tx) { rows = readIndex(tx, tbl, "parent", 7) })
			if took := p.Now() - start; took != db.opTime || len(rows) != n {
				t.Errorf("%d-row bucket: read %d rows in %v, want %d in one op time (%v)", n, len(rows), took, n, db.opTime)
			}
		})
		env.MustRun()
	}
}

// TestIndexReadOrderIndependent: the rows of a bucket come back in the
// index's order however they were inserted — ascending, descending or
// shuffled — never in insertion or map order.
func TestIndexReadOrderIndependent(t *testing.T) {
	const n = 64
	asc, desc := make([]int, n), make([]int, n)
	for i := range asc {
		asc[i], desc[i] = i, n-1-i
	}
	var want []row
	for _, perm := range [][]int{asc, desc, rand.New(rand.NewSource(2)).Perm(n), rand.New(rand.NewSource(3)).Perm(n)} {
		env := sim.NewEnv(1)
		db, _ := newDB(env)
		tbl := NewTable[uint64, row](db, "dentry", RamCopies)
		tbl.AddIndex("parent", func(v row) uint64 { return v.Parent }, byName)
		var got []row
		env.Spawn("t", func(p *sim.Proc) {
			fillBucket(p, db, tbl, perm)
			db.View(p, func(tx *Tx) { got = readIndex(tx, tbl, "parent", 7) })
		})
		env.MustRun()
		if !slices.IsSortedFunc(got, byName) || len(got) != n {
			t.Fatalf("insert order %v: %d rows, not sorted by name: %v", perm[:4], len(got), got)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("insert order %v changed the rows read: %v, want %v", perm[:4], got, want)
		}
	}
}
