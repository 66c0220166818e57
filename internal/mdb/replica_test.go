package mdb

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/disk"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// replPair builds a primary and standby DB with one shared-schema table
// each, plus a replica shipping with the given delay.
func replPair(t *testing.T, delay time.Duration) (*sim.Env, *DB, *DB, *Table[int, string], *Table[int, string], *Replica) {
	t.Helper()
	env := sim.NewEnv(42)
	src := NewAsync(env, disk.New(env, "primary", params.Default().Disk), 0, 50*time.Millisecond)
	dst := New(env, disk.New(env, "standby", params.Default().Disk), 0)
	st := NewTable[int, string](src, "t", DiscCopies)
	dt := NewTable[int, string](dst, "t", DiscCopies)
	rep := Replicate(env, src, dst, delay)
	return env, src, dst, st, dt, rep
}

func TestReplicaShipsCommittedRecords(t *testing.T) {
	env, src, _, st, dt, rep := replPair(t, time.Millisecond)
	env.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			src.Transaction(p, func(tx *Tx) {
				Put(tx, st, i, fmt.Sprintf("v%d", i))
			})
		}
	})
	env.MustRun()
	if rep.Lag() != 0 {
		t.Fatalf("lag = %d after drain, want 0", rep.Lag())
	}
	for i := 0; i < 100; i++ {
		got, ok := dt.Peek(i)
		if !ok || got != fmt.Sprintf("v%d", i) {
			t.Fatalf("standby row %d = (%q, %v)", i, got, ok)
		}
	}
	if rep.Records < 100 {
		t.Errorf("shipped %d records, want >= 100", rep.Records)
	}
	if rep.Ships >= rep.Records {
		t.Errorf("shipping did not batch: %d ships for %d records", rep.Ships, rep.Records)
	}
}

func TestReplicaShipsDeletes(t *testing.T) {
	env, src, _, st, dt, _ := replPair(t, time.Millisecond)
	env.Spawn("writer", func(p *sim.Proc) {
		src.Transaction(p, func(tx *Tx) {
			Put(tx, st, 1, "a")
			Put(tx, st, 2, "b")
		})
		src.Transaction(p, func(tx *Tx) {
			Delete(tx, st, 1)
		})
	})
	env.MustRun()
	if _, ok := dt.Peek(1); ok {
		t.Error("deleted row survived on standby")
	}
	if v, ok := dt.Peek(2); !ok || v != "b" {
		t.Errorf("row 2 = (%q, %v), want (b, true)", v, ok)
	}
}

func TestReplicaLagWindowLosesTail(t *testing.T) {
	// With a large shipping delay, records committed just before the
	// crash are not on the standby: the replication analogue of the
	// soft-real-time flush window.
	env, src, _, st, dt, rep := replPair(t, 10*time.Second)
	env.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			src.Transaction(p, func(tx *Tx) {
				Put(tx, st, i, "x")
			})
		}
		// Crash before the first ship fires.
		if rep.Lag() == 0 {
			t.Error("expected non-zero lag before first ship")
		}
		rep.Stop()
		src.Crash()
	})
	env.MustRun()
	if n := dt.Len(); n != 0 {
		t.Errorf("standby has %d rows, want 0 (nothing shipped)", n)
	}
}

func TestReplicaResyncAfterCheckpoint(t *testing.T) {
	env, src, _, st, dt, rep := replPair(t, time.Millisecond)
	env.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			src.Transaction(p, func(tx *Tx) {
				Put(tx, st, i, "v")
			})
		}
		src.Transaction(p, func(tx *Tx) {
			Delete(tx, st, 7)
		})
		// Checkpoint rewrites the WAL as a snapshot; the replica must
		// resynchronize, including the delete of row 7.
		src.Checkpoint(p)
		src.Transaction(p, func(tx *Tx) {
			Put(tx, st, 100, "post-checkpoint")
		})
	})
	env.MustRun()
	if rep.Lag() != 0 {
		t.Fatalf("lag = %d, want 0", rep.Lag())
	}
	if _, ok := dt.Peek(7); ok {
		t.Error("row deleted before checkpoint reappeared on standby")
	}
	if v, ok := dt.Peek(100); !ok || v != "post-checkpoint" {
		t.Errorf("post-checkpoint row = (%q, %v)", v, ok)
	}
	if dt.Len() != 20 {
		t.Errorf("standby rows = %d, want 20", dt.Len())
	}
}

func TestReplicaLagCountsPendingResync(t *testing.T) {
	// Regression: Lag() used to diff the source's WAL length against the
	// shipped offset, ignoring that a pending resync (Checkpoint rewrote
	// the log as a snapshot) breaks that alignment. Overwrites make the
	// snapshot shorter than the offset already shipped, so the buggy
	// diff clamped to (near-)zero although unshipped commits existed —
	// and a Promote in that window returned a wrong lost-window count.
	// The long shipping delay keeps the resync window open across the
	// Checkpoint's own disk writes.
	env, src, _, st, _, rep := replPair(t, 50*time.Millisecond)
	env.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			src.Transaction(p, func(tx *Tx) { Put(tx, st, i, "v") })
		}
		p.Sleep(time.Second)
		if rep.Lag() != 0 {
			t.Fatalf("lag = %d after drain, want 0", rep.Lag())
		}
		// Ten unshipped commits, all to one key, then Checkpoint before
		// the shipping timer fires: the snapshot holds one row for the
		// ten, so the rewritten WAL is shorter than the shipped offset
		// and the offset diff would report zero.
		for i := 0; i < 10; i++ {
			src.Transaction(p, func(tx *Tx) { Put(tx, st, 99, "w") })
		}
		src.Checkpoint(p)
		if got := rep.Lag(); got != 10 {
			t.Errorf("lag with pending resync = %d, want 10 (the unshipped commits)", got)
		}
		// After the resync rebuild drains, the standby has everything.
		p.Sleep(time.Second)
		rep.Flush(p)
		if rep.Lag() != 0 {
			t.Errorf("lag = %d after resync drain, want 0", rep.Lag())
		}
	})
	env.MustRun()
}

func TestReplicaFlushSkipsInflightRound(t *testing.T) {
	// Regression: a Flush overlapping a scheduled round's (yielding)
	// apply loop used to run as a second concurrent ship of the same
	// batch — double-applying it, duplicating the standby's WAL and
	// inflating Ships/Records. Rounds now serialize, and the losing
	// round skips as a no-op, so the shipping stats stay honest.
	env := sim.NewEnv(11)
	src := NewAsync(env, disk.New(env, "primary", params.Default().Disk), 0, 50*time.Millisecond)
	dst := New(env, disk.New(env, "standby", params.Default().Disk), 20*time.Microsecond)
	st := NewTable[int, string](src, "t", DiscCopies)
	dt := NewTable[int, string](dst, "t", DiscCopies)
	rep := Replicate(env, src, dst, time.Millisecond)
	env.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			src.Transaction(p, func(tx *Tx) { Put(tx, st, i, "v") })
		}
		// The commit pump scheduled a round one delay out; sleep into
		// that round's apply loop (5 us per record), then Flush while it
		// is mid-flight.
		p.Sleep(time.Millisecond + 50*time.Microsecond)
		rep.Flush(p)
	})
	env.MustRun()
	if rep.Ships != 1 {
		t.Errorf("Ships = %d after Flush overlapping the scheduled round, want 1", rep.Ships)
	}
	if rep.Records != 50 {
		t.Errorf("Records = %d, want 50 (batch shipped exactly once)", rep.Records)
	}
	if n := dst.WALLen(); n != 50 {
		t.Errorf("standby WAL = %d records, want 50 (no duplicate applies)", n)
	}
	if dt.Len() != 50 {
		t.Errorf("standby rows = %d, want 50", dt.Len())
	}
}

// TestReplicaCursorCoversAppliedCommits: the replica's cursor — the
// commit sequence the standby has applied — is read through Lag, which
// must count exactly the commits not yet applied, across shipping and
// a checkpoint's resync.
func TestReplicaCursorCoversAppliedCommits(t *testing.T) {
	env := sim.NewEnv(42)
	src := NewAsync(env, disk.New(env, "primary", params.Default().Disk), 0, 50*time.Millisecond)
	dst := New(env, disk.New(env, "standby", params.Default().Disk), 0)
	st := NewTable[int, string](src, "t", DiscCopies)
	dt := NewTable[int, string](dst, "t", DiscCopies)
	rep := Replicate(env, src, dst, time.Millisecond)
	env.Spawn("writer", func(p *sim.Proc) {
		if n := rep.Lag(); n != 0 {
			t.Errorf("lag before any commit = %d, want 0", n)
		}
		for i := 0; i < 10; i++ {
			src.Transaction(p, func(tx *Tx) { Put(tx, st, i, "v") })
		}
		if n := rep.Lag(); n != 10 {
			t.Errorf("lag before the first ship = %d, want 10", n)
		}
		p.Sleep(time.Second)
		if n := rep.Lag(); n != 0 || dt.Len() != 10 {
			t.Fatalf("drained: lag %d, standby rows %d; want 0, 10", n, dt.Len())
		}
		// A commit the standby has not applied yet is one record of lag.
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 3, "newer") })
		if n := rep.Lag(); n != 1 {
			t.Errorf("lag after an unshipped commit = %d, want 1", n)
		}
		// A checkpoint rewrites the log but not the commit sequence: with
		// the resync pending, a commit after it is exactly one record of
		// lag, and the rebuild converges on the checkpointed state.
		src.Checkpoint(p)
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 10, "after") })
		if n := rep.Lag(); n != 1 {
			t.Errorf("lag after a checkpoint and one commit = %d, want 1", n)
		}
		p.Sleep(time.Second)
		if n := rep.Lag(); n != 0 {
			t.Errorf("lag after the resync = %d, want 0", n)
		}
		if v, ok := dt.Peek(3); !ok || v != "newer" || dt.Len() != 11 {
			t.Errorf("standby after resync: row 3 = (%q, %v), %d rows; want (newer, true), 11", v, ok, dt.Len())
		}
	})
	env.MustRun()
}

// TestReplicaCursorInvalidAfterPrimaryCrash: a primary crash leaves the
// replica's cursor beyond the recovered log; the standby lags zero and
// its resync rebuild drops the commits the primary lost.
func TestReplicaCursorInvalidAfterPrimaryCrash(t *testing.T) {
	// After a primary crash the standby may have applied commits the
	// primary lost (the flush window): it is ahead, so it lags zero,
	// and the resync rebuild converges on the recovered state.
	env := sim.NewEnv(7)
	src := NewAsync(env, disk.New(env, "primary", params.Default().Disk), 0, time.Second)
	dst := New(env, disk.New(env, "standby", params.Default().Disk), 0)
	st := NewTable[int, string](src, "t", DiscCopies)
	dt := NewTable[int, string](dst, "t", DiscCopies)
	rep := Replicate(env, src, dst, time.Millisecond)
	env.Spawn("writer", func(p *sim.Proc) {
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 1, "flushed") })
		p.Sleep(2 * time.Second)
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 2, "window") })
		p.Sleep(10 * time.Millisecond)
		src.Crash()
		if n := rep.Lag(); n != 0 {
			t.Errorf("lag of a standby ahead of the crashed primary = %d, want 0", n)
		}
		src.Recover(p)
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 3, "post") })
		p.Sleep(time.Second)
		if n := rep.Lag(); n != 0 {
			t.Errorf("lag after the rebuild = %d, want 0", n)
		}
		if _, ok := dt.Peek(2); ok || dt.Len() != 2 {
			t.Errorf("standby after rebuild: %d rows, window row present %v; want 2 rows, no window row", dt.Len(), ok)
		}
	})
	env.MustRun()
}

func TestReplicaStandbyRecoversFromOwnLog(t *testing.T) {
	// The standby journals what it applies: after a standby restart,
	// its own WAL replay reconstructs the shipped state.
	env, src, dst, st, dt, _ := replPair(t, time.Millisecond)
	env.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			src.Transaction(p, func(tx *Tx) {
				Put(tx, st, i, "v")
			})
		}
	})
	env.MustRun()
	if dt.Len() != 30 {
		t.Fatalf("standby rows before crash = %d, want 30", dt.Len())
	}
	dst.Crash()
	if dt.Len() != 0 {
		t.Fatal("crash must clear standby tables")
	}
	env.Spawn("recover", func(p *sim.Proc) { dst.Recover(p) })
	env.MustRun()
	if dt.Len() != 30 {
		t.Errorf("standby rows after recovery = %d, want 30", dt.Len())
	}
}

func TestReplicaStopHaltsShipping(t *testing.T) {
	env, src, _, st, dt, rep := replPair(t, time.Millisecond)
	env.Spawn("writer", func(p *sim.Proc) {
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 1, "a") })
	})
	env.MustRun()
	rep.Stop()
	env.Spawn("writer2", func(p *sim.Proc) {
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 2, "b") })
	})
	env.MustRun()
	if _, ok := dt.Peek(2); ok {
		t.Error("record shipped after Stop")
	}
	if _, ok := dt.Peek(1); !ok {
		t.Error("record shipped before Stop missing")
	}
}

func TestReplicaResyncAfterPrimaryCrash(t *testing.T) {
	// A primary crash truncates the WAL, invalidating the replica's
	// shipped offset. The replica must rebuild to the primary's
	// recoverable state: rows the standby saw but the primary lost in
	// the flush window must disappear, and records committed after
	// recovery must ship.
	env := sim.NewEnv(7)
	src := NewAsync(env, disk.New(env, "primary", params.Default().Disk), 0, time.Second)
	dst := New(env, disk.New(env, "standby", params.Default().Disk), 0)
	st := NewTable[int, string](src, "t", DiscCopies)
	dt := NewTable[int, string](dst, "t", DiscCopies)
	Replicate(env, src, dst, time.Millisecond)

	env.Spawn("writer", func(p *sim.Proc) {
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 1, "flushed") })
		p.Sleep(2 * time.Second) // the async flusher covers row 1
		// Row 2 ships to the standby (1 ms) but the crash strikes
		// before the next 1 s log flush: the primary loses it.
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 2, "window") })
		p.Sleep(10 * time.Millisecond)
		if _, ok := dt.Peek(2); !ok {
			t.Error("standby should have seen the window row before the crash")
		}
		src.Crash()
		src.Recover(p)
		src.Transaction(p, func(tx *Tx) { Put(tx, st, 3, "post") })
	})
	env.MustRun()

	if _, ok := dt.Peek(2); ok {
		t.Error("window row survived on standby after resync (diverges from primary)")
	}
	if v, ok := dt.Peek(1); !ok || v != "flushed" {
		t.Errorf("flushed row = (%q, %v), want (flushed, true)", v, ok)
	}
	if v, ok := dt.Peek(3); !ok || v != "post" {
		t.Errorf("post-recovery row = (%q, %v), want (post, true)", v, ok)
	}
}
