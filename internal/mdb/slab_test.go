package mdb

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"
	"weak"

	"cofs/internal/disk"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// skipUnderRace skips an allocation pin in a -race build, whose
// instrumentation allocates on its own.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates")
			}
		}
	}
}

// TestTransactionAllocsPerOp pins the typed write set: a transaction
// putting, reading and deleting rows of the service's three table
// shapes allocates only the slab and WAL chunks its records fill, well
// under one allocation per twenty table operations.
func TestTransactionAllocsPerOp(t *testing.T) {
	skipUnderRace(t)
	type inodeRow struct {
		ID                  uint64
		Type                uint8
		Mode, UID, GID      uint32
		Nlink               int
		Size                int64
		Atime, Mtime, Ctime time.Duration
		Target              string
	}
	type dentryKey struct {
		Parent uint64
		Name   string
	}
	type dentryRow struct {
		Parent uint64
		Name   string
		Child  uint64
		Type   uint8
	}
	env := sim.NewEnv(1)
	db := NewAsync(env, disk.New(env, "mdb", params.Default().Disk), 0, time.Hour)
	inodes := NewTable[uint64, inodeRow](db, "inode", DiscCopies)
	dentries := NewTable[dentryKey, dentryRow](db, "dentry", DiscCopies)
	dentries.AddIndex("parent", func(r dentryRow) uint64 { return r.Parent }, func(a, b dentryRow) int { return strings.Compare(a.Name, b.Name) })
	mappings := NewTable[uint64, string](db, "mapping", DiscCopies)
	// A row that stays keeps the directory's index bucket alive.
	dentries.Bootstrap(dentryKey{1, "keep"}, dentryRow{Parent: 1, Name: "keep", Child: 2})
	names := make([]string, 64)
	for i := range names {
		names[i] = "f" + strconv.Itoa(i)
	}
	const txns, opsPerTxn = 1000, 9
	pass := func(p *sim.Proc) {
		for i := 0; i < txns; i++ {
			id := uint64(100 + i%len(names))
			k := dentryKey{1, names[i%len(names)]}
			db.Transaction(p, func(tx *Tx) {
				Put(tx, inodes, id, inodeRow{ID: id, Nlink: 1})
				Put(tx, dentries, k, dentryRow{Parent: 1, Name: k.Name, Child: id})
				Put(tx, mappings, id, "obj")
				Get(tx, inodes, id)
				Get(tx, dentries, k)
				Get(tx, mappings, id)
				Delete(tx, inodes, id)
				Delete(tx, dentries, k)
				Delete(tx, mappings, id)
			})
		}
	}
	var perOp float64
	env.Spawn("t", func(p *sim.Proc) {
		pass(p)
		perOp = testing.AllocsPerRun(5, func() { pass(p) }) / (txns * opsPerTxn)
	})
	env.MustRun()
	if perOp >= 0.05 {
		t.Fatalf("%.4f allocs per table operation, want < 0.05", perOp)
	}
}

// TestAsyncFlushAllocsOnlyItsProc pins the background flush's host
// cost: its function is bound once, so a warm flush — a commit, then
// the dump that makes it durable — allocates only the Proc it runs on.
func TestAsyncFlushAllocsOnlyItsProc(t *testing.T) {
	skipUnderRace(t)
	env := sim.NewEnv(1)
	db := NewAsync(env, disk.New(env, "mdb", params.Default().Disk), 0, time.Millisecond)
	tbl := NewTable[int, int](db, "t", DiscCopies)
	env.Spawn("t", func(p *sim.Proc) {
		flush := func() {
			db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 1, 1) })
			p.Sleep(10 * time.Millisecond)
		}
		flush()
		flushes := db.LogFlushes
		if n := testing.AllocsPerRun(100, flush); n != 1 {
			t.Errorf("a warm flush allocates %v, want the 1 of its Proc", n)
		}
		if got := db.LogFlushes - flushes; got != 101 {
			t.Errorf("%d flushes ran, want 101", got)
		}
	})
	env.MustRun()
}

// TestLogRetainsOnlyUnreadTail pins what the host keeps of the log. With
// no replica, 10 000 flushed commits — on the synchronous and the
// asynchronous WAL, after one transaction of two chunks' worth of puts
// that grows the reused write-set buffer — leave no record held and at
// most one live slab chunk per table: every chunk a flushed record's
// entry was carved from is garbage once the record folds. With a lagging replica the primary
// holds exactly the records the standby lacks, and Stop releases them.
func TestLogRetainsOnlyUnreadTail(t *testing.T) {
	for _, interval := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("interval=%v", interval), func(t *testing.T) {
			env := sim.NewEnv(1)
			db := NewAsync(env, disk.New(env, "mdb", params.Default().Disk), 0, interval)
			tbl := NewTable[int, int](db, "t", DiscCopies)
			var chunks []weak.Pointer[entry[int, int]]
			// track keeps a weak pointer to each slab chunk the table
			// carves from.
			track := func() {
				if c := &tbl.slab[0]; len(chunks) == 0 || chunks[len(chunks)-1].Value() != c {
					chunks = append(chunks, weak.Make(c))
				}
			}
			env.Spawn("t", func(p *sim.Proc) {
				db.Transaction(p, func(tx *Tx) {
					for i := range 2 * entrySlabChunk {
						Put(tx, tbl, i, i)
						track()
					}
				})
				for i := 0; i < 10000; i++ {
					db.Transaction(p, func(tx *Tx) { Put(tx, tbl, i%64, i) })
					track()
				}
			})
			env.MustRun()
			if n := db.wal.retained(); n != 0 || db.WALLen() != 2*entrySlabChunk+10000 {
				t.Fatalf("the log holds %d of %d records after every flush, want 0 of %d", n, db.WALLen(), 2*entrySlabChunk+10000)
			}
			runtime.GC()
			live := 0
			for _, c := range chunks {
				if c.Value() != nil {
					live++
				}
			}
			if live > 1 || len(chunks) < 10000/entrySlabChunk {
				t.Errorf("%d of %d slab chunks live, want at most 1", live, len(chunks))
			}
			runtime.KeepAlive(db)
		})
	}
	t.Run("lagging replica", func(t *testing.T) {
		env, src, _, st, _, rep := replPair(t, 10*time.Second)
		env.Spawn("writer", func(p *sim.Proc) {
			for _, commits := range []int{1000, 300} {
				for i := 0; i < commits; i++ {
					src.Transaction(p, func(tx *Tx) { Put(tx, st, i, "v") })
				}
				p.Sleep(time.Second) // flushed, not shipped
				if n := src.wal.retained(); n != rep.Lag() || n != commits {
					t.Errorf("the primary holds %d records for a lag of %d, want %d", n, rep.Lag(), commits)
				}
				p.Sleep(10 * time.Second) // shipped
				if n := src.wal.retained(); n != 0 || rep.Lag() != 0 {
					t.Errorf("the primary holds %d records for a lag of %d after a ship, want 0", n, rep.Lag())
				}
			}
			src.Transaction(p, func(tx *Tx) { Put(tx, st, 0, "w") })
			p.Sleep(time.Second)
			if n := src.wal.retained(); n != 1 {
				t.Errorf("the primary holds %d records for the unshipped commit, want 1", n)
			}
			rep.Stop()
			if n := src.wal.retained(); n != 0 {
				t.Errorf("the primary holds %d records for a stopped replica, want 0", n)
			}
		})
		env.MustRun()
	})
}

// TestIndexAddRemoveAllocsNothing pins the index's host cost: adding
// and removing a row under a bucket that stays non-empty allocates
// nothing, in a one-row bucket and in a 16 384-row one whose chunk takes
// the row without splitting or emptying. The large bucket is filled the
// way metarates fills a shared directory — names created round-robin by
// rank — so its inserts land mid-run, not at its end.
func TestIndexAddRemoveAllocsNothing(t *testing.T) {
	skipUnderRace(t)
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[uint64, row](db, "dentry", RamCopies)
	tbl.AddIndex("parent", func(v row) uint64 { return v.Parent }, byName)
	tbl.Bootstrap(1, row{Parent: 7, Name: "keep"})
	const ranks, perRank = 16, 1024
	for i := 0; i < perRank; i++ {
		for r := 0; r < ranks; r++ {
			tbl.Bootstrap(uint64(2+r*perRank+i), row{Parent: 8, Name: fmt.Sprintf("metarates.%04d.%06d", r, i)})
		}
	}
	ix := tbl.indexes[0]
	big := ix.buckets[8]
	if big.n != ranks*perRank || len(big.chunks) < big.n/runChunk {
		t.Fatalf("bucket 8 holds %d rows in %d chunks, want %d rows in at least %d", big.n, len(big.chunks), ranks*perRank, big.n/runChunk)
	}
	mid := row{Parent: 8, Name: fmt.Sprintf("metarates.%04d.%06d", ranks/2, perRank)}
	if ch := big.chunks[big.chunk(mid, byName)]; len(ch) == runChunk || len(ch) == 0 {
		t.Fatalf("the mid-run row's chunk holds %d rows; the pin wants one it fits without a split", len(ch))
	}
	for _, v := range []row{{Parent: 7, Name: "x"}, mid} {
		if n := testing.AllocsPerRun(1000, func() { ix.add(v); ix.remove(v) }); n != 0 {
			t.Errorf("index add+remove of %q allocates %v, want 0", v.Name, n)
		}
	}
}

// TestIndexReadAllocsOneSlice pins the row read's cost in host memory:
// reading a 64-row bucket into a slice allocates that one slice (the
// view itself allocates nothing), and an empty bucket allocates nothing.
func TestIndexReadAllocsOneSlice(t *testing.T) {
	skipUnderRace(t)
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[uint64, row](db, "dentry", RamCopies)
	tbl.AddIndex("parent", func(v row) uint64 { return v.Parent }, byName)
	for i := 0; i < 64; i++ {
		tbl.Bootstrap(uint64(100+i), row{Parent: 7, Name: "f" + strconv.Itoa(i)})
	}
	// An untimed handle, as CheckCacheCoherence reads with.
	tx := &Tx{}
	for _, c := range []struct {
		bucket uint64
		want   float64
	}{{7, 1}, {8, 0}} {
		if n := testing.AllocsPerRun(100, func() { readIndex(tx, tbl, "parent", c.bucket) }); n != c.want {
			t.Errorf("IndexRead of bucket %d allocates %v, want %v", c.bucket, n, c.want)
		}
	}
}

// TestRecoverKeepsFlushedValue re-puts one key across several slab
// chunks and crashes before the log is flushed again: recovery must
// replay the value the flushed record logged, not a later one.
func TestRecoverKeepsFlushedValue(t *testing.T) {
	env := sim.NewEnv(1)
	db := NewAsync(env, disk.New(env, "mdb", params.Default().Disk), 0, time.Hour)
	tbl := NewTable[int, int](db, "t", DiscCopies)
	env.Spawn("t", func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 1, -1) })
		db.forceLog(p)
		for i := 0; i < 3*entrySlabChunk; i++ {
			db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 1, i) })
		}
		db.Crash()
		db.Recover(p)
		if v, ok := tbl.Peek(1); !ok || v != -1 {
			t.Errorf("recovered (%d, %v), want the flushed (-1, true)", v, ok)
		}
	})
	env.MustRun()
}

// TestReplicaAppliesLoggedValues re-puts one key across several slab
// chunks in rounds the replica ships between: while the standby lags,
// the primary's retained window must hold each record with the value it
// was written with, and after each round the standby must hold the last
// one — and recover it from its own log.
func TestReplicaAppliesLoggedValues(t *testing.T) {
	const rounds = 3
	env, src, dst, st, dt, rep := replPair(t, time.Millisecond)
	env.Spawn("writer", func(p *sim.Proc) {
		for round := 0; round < rounds; round++ {
			first := round * entrySlabChunk
			for i := first; i < first+entrySlabChunk; i++ {
				src.Transaction(p, func(tx *Tx) { Put(tx, st, 1, strconv.Itoa(i)) })
			}
			if n := src.wal.retained(); n != rep.Lag() || n != entrySlabChunk {
				t.Fatalf("round %d: the primary retains %d records for a lag of %d, want %d", round, n, rep.Lag(), entrySlabChunk)
			}
			i := first
			src.wal.each(rep.shipped, src.wal.len(), func(rec walRec) {
				if got := rec.kv.(*entry[int, string]).val; got != strconv.Itoa(i) {
					t.Errorf("retained record %d carries %q, want %q", i, got, strconv.Itoa(i))
				}
				i++
			})
			p.Sleep(time.Second) // the replica ships and the log flushes
			if v, ok := dt.Peek(1); !ok || v != strconv.Itoa(first+entrySlabChunk-1) {
				t.Errorf("round %d: standby holds (%q, %v), want (%q, true)", round, v, ok, strconv.Itoa(first+entrySlabChunk-1))
			}
		}
	})
	env.MustRun()
	if dst.wal.len() != rounds*entrySlabChunk {
		t.Fatalf("standby logged %d records, want %d", dst.wal.len(), rounds*entrySlabChunk)
	}
	dst.Crash()
	env.Spawn("recover", func(p *sim.Proc) { dst.Recover(p) })
	env.MustRun()
	if v, ok := dt.Peek(1); !ok || v != strconv.Itoa(rounds*entrySlabChunk-1) {
		t.Errorf("standby recovered (%q, %v), want (%q, true)", v, ok, strconv.Itoa(rounds*entrySlabChunk-1))
	}
}

// TestHandoffImportsValueAtBuild builds a handoff, then keeps writing
// the same key on the source past a slab chunk: the import must carry
// the value the handoff was built with.
func TestHandoffImportsValueAtBuild(t *testing.T) {
	env := sim.NewEnv(1)
	src, _ := newDB(env)
	dst, _ := newDB(env)
	st := NewTable[int, string](src, "t", DiscCopies)
	dt := NewTable[int, string](dst, "t", DiscCopies)
	env.Spawn("t", func(p *sim.Proc) {
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 1, "old") })
		h := &Handoff{}
		HandoffPut(h, st, 1, "old")
		for i := 0; i < 2*entrySlabChunk; i++ {
			src.Transaction(p, func(tx *Tx) { Put(tx, st, 1, "new") })
		}
		dst.ImportHandoff(p, h)
		if v, ok := dt.Peek(1); !ok || v != "old" {
			t.Errorf("imported (%q, %v), want (old, true)", v, ok)
		}
	})
	env.MustRun()
}
