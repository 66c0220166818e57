package mdb

import (
	"testing"
	"time"

	"cofs/internal/disk"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// The WAL's durable cursor marks how much of the log a crash keeps. Each
// of its writers yields on the disk between deciding what to make
// durable and marking it durable, and a transaction can land in that
// window. These tests land one there and crash the instant the writer
// returns: the record must not survive, because no write covered it.

// TestGroupCommitCursorCoversOnlyFlushed: a transaction that lands while
// another's journal flush is in flight needs the next flush; the first
// commit returning must not count it as flushed.
func TestGroupCommitCursorCoversOnlyFlushed(t *testing.T) {
	env := sim.NewEnv(1)
	db, _ := newDB(env)
	tbl := NewTable[int, int](db, "t", DiscCopies)
	secondDone := false
	env.Spawn("first", func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 1, 1) })
		if secondDone {
			t.Fatal("the second commit finished first: it did not wait for its own flush")
		}
		db.Crash()
		if n := db.WALLen(); n != 1 {
			t.Errorf("crash kept %d log records, want the 1 the flush covered", n)
		}
		db.Recover(p)
		if _, ok := tbl.Peek(1); !ok {
			t.Error("the flushed row was lost")
		}
		if _, ok := tbl.Peek(2); ok {
			t.Error("a row whose flush never completed survived the crash")
		}
	})
	// Land inside the first commit's flush: after its op charge, before
	// its sync completes.
	env.SpawnAfter("second", 2*db.opTime, func(p *sim.Proc) {
		db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 2, 2) })
		secondDone = true
	})
	env.MustRun()
}

// TestImportForceCursorCoversOnlyItsRecords: a handoff import on an
// asynchronous database forces the log and acks; a transaction landing
// while the force is on the disk rides the background dump, not the
// force, so a crash before the first dump must lose it.
func TestImportForceCursorCoversOnlyItsRecords(t *testing.T) {
	env := sim.NewEnv(1)
	db := NewAsync(env, disk.New(env, "mdb", params.Default().Disk), 10*time.Microsecond, time.Hour)
	tbl := NewTable[int, string](db, "rows", DiscCopies)
	h := &Handoff{}
	HandoffPut(h, tbl, 1, "moved")
	var landed, acked time.Duration
	env.Spawn("import", func(p *sim.Proc) {
		db.ImportHandoff(p, h)
		acked = p.Now()
		db.Crash()
		if n := db.WALLen(); n != 1 {
			t.Errorf("crash kept %d log records, want the import's 1", n)
		}
		db.Recover(p)
		if _, ok := tbl.Peek(1); !ok {
			t.Error("the forced import was lost")
		}
		if _, ok := tbl.Peek(2); ok {
			t.Error("a transaction that landed during the force survived a crash before any dump")
		}
	})
	env.SpawnAfter("txn", 500*time.Microsecond, func(p *sim.Proc) {
		landed = p.Now()
		db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 2, "late") })
	})
	env.MustRun()
	if landed == 0 || landed >= acked {
		t.Fatalf("the transaction landed at %v, the import acked at %v: it did not land during the force", landed, acked)
	}
}

// TestCheckpointKeepsRecordsLandedDuringDump: the checkpoint image holds
// the rows of its own instant. A transaction landing while the image is
// on the disk stays in the log after it, unflushed: a crash right after
// the checkpoint loses it, and the background dump makes it durable.
func TestCheckpointKeepsRecordsLandedDuringDump(t *testing.T) {
	for _, dumped := range []bool{false, true} {
		env := sim.NewEnv(1)
		db := NewAsync(env, disk.New(env, "mdb", params.Default().Disk), 10*time.Microsecond, 50*time.Millisecond)
		tbl := NewTable[int, int](db, "t", DiscCopies)
		tbl.Bootstrap(1, 1)
		var landed, done time.Duration
		env.Spawn("checkpoint", func(p *sim.Proc) {
			db.Checkpoint(p)
			done = p.Now()
			if n := db.WALLen(); n != 2 {
				t.Errorf("log after the checkpoint holds %d records, want the image's 1 and the landed 1", n)
			}
			if dumped {
				p.Sleep(time.Second) // the background dump runs
			}
			db.Crash()
			db.Recover(p)
			if _, ok := tbl.Peek(1); !ok {
				t.Error("the checkpointed row was lost")
			}
			if _, ok := tbl.Peek(2); ok != dumped {
				t.Errorf("background dump ran = %v, but the row that landed during the checkpoint survived a crash = %v", dumped, ok)
			}
		})
		env.SpawnAfter("txn", 500*time.Microsecond, func(p *sim.Proc) {
			landed = p.Now()
			db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 2, 2) })
		})
		env.MustRun()
		if landed == 0 || landed >= done {
			t.Fatalf("the transaction landed at %v, the checkpoint returned at %v: it did not land during the dump", landed, done)
		}
	}
}

// TestCrashFreezesCursor: a crash while a writer's disk write is in
// flight truncates the log to the durable cursor, and the writer then
// resumes. Whichever writer it is — a synchronous commit, the background
// flusher, a handoff import's force or a checkpoint's dump — it must
// advance no cursor and rewrite no log when it does: the cursor stays
// within the log, and nothing the crash took comes back at the next one.
func TestCrashFreezesCursor(t *testing.T) {
	for _, c := range []struct {
		name     string
		interval time.Duration // 0: the synchronous WAL
		crashAt  time.Duration // inside the writer's disk write
		write    func(p *sim.Proc, db *DB, tbl *Table[int, int])
	}{
		{"commit", 0, 20 * time.Microsecond, func(p *sim.Proc, db *DB, tbl *Table[int, int]) {
			db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 2, 2) })
		}},
		{"flush", time.Millisecond, 1500 * time.Microsecond, func(p *sim.Proc, db *DB, tbl *Table[int, int]) {
			db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 2, 2) })
		}},
		{"force", time.Hour, 500 * time.Microsecond, func(p *sim.Proc, db *DB, tbl *Table[int, int]) {
			h := &Handoff{}
			HandoffPut(h, tbl, 2, 2)
			db.ImportHandoff(p, h)
		}},
		{"checkpoint", time.Hour, 500 * time.Microsecond, func(p *sim.Proc, db *DB, tbl *Table[int, int]) {
			db.Transaction(p, func(tx *Tx) { Put(tx, tbl, 2, 2) })
			db.Checkpoint(p)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			db := NewAsync(env, disk.New(env, "mdb", params.Default().Disk), 10*time.Microsecond, c.interval)
			tbl := NewTable[int, int](db, "t", DiscCopies)
			tbl.Bootstrap(1, 1)
			env.Spawn("writer", func(p *sim.Proc) { c.write(p, db, tbl) })
			env.SpawnAfter("crash", c.crashAt, func(p *sim.Proc) {
				db.Crash()
				db.Recover(p)
			})
			env.MustRun()
			if db.flushed > db.CommitSeq() {
				t.Errorf("durable cursor %d past the log's end %d after the writer resumed", db.flushed, db.CommitSeq())
			}
			env.Spawn("crash again", func(p *sim.Proc) {
				db.Crash()
				db.Recover(p)
			})
			env.MustRun()
			if _, ok := tbl.Peek(1); !ok {
				t.Error("the bootstrapped row was lost")
			}
			if _, ok := tbl.Peek(2); ok {
				t.Error("a row no write covered before the crash came back at the next one")
			}
		})
	}
}
