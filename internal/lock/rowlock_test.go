package lock

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/sim"
)

func rk(shard int, kind Kind, id uint64, name string) RowKey {
	return RowKey{Shard: shard, Kind: kind, ID: id, Name: name}
}

func xs(keys ...RowKey) []Req {
	out := make([]Req, len(keys))
	for i, k := range keys {
		out[i] = X(k)
	}
	return out
}

func TestSortReqsCanonicalOrderDedupStrongestMode(t *testing.T) {
	reqs := []Req{
		X(rk(1, 2, 7, "b")),
		S(rk(0, 2, 7, "")),
		S(rk(1, 1, 7, "")),
		S(rk(1, 2, 7, "a")),
		X(rk(1, 2, 3, "z")),
		X(rk(1, 2, 7, "a")), // duplicate key, stronger mode
		S(rk(0, 1, 9, "")),
		S(rk(1, 2, 3, "z")), // duplicate key, weaker mode
	}
	got := SortReqs(reqs)
	want := []Req{
		S(rk(0, 1, 9, "")),
		S(rk(0, 2, 7, "")),
		S(rk(1, 1, 7, "")),
		X(rk(1, 2, 3, "z")),
		X(rk(1, 2, 7, "a")),
		X(rk(1, 2, 7, "b")),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d reqs, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("req %d: got %v, want %v", i, got[i], want[i])
		}
		if i > 0 && !got[i-1].Key.Less(got[i].Key) {
			t.Fatalf("result not strictly ascending at %d: %v, %v", i, got[i-1], got[i])
		}
	}
}

func TestAcquirePanicsOutOfOrder(t *testing.T) {
	env := sim.NewEnv(1)
	rl := NewRowLocks(env)
	env.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order acquisition did not panic")
			}
		}()
		rl.Acquire(p, []Req{X(rk(1, 1, 1, "")), X(rk(0, 1, 1, ""))}, nil)
	})
	env.MustRun()
}

// TestRowLocksSerializeFIFO pins the exclusive contention behaviour: a
// second acquirer of an overlapping footprint waits (in virtual time)
// until the first releases, the wait triggers onWait exactly once and
// is counted, and grants hand over FIFO.
func TestRowLocksSerializeFIFO(t *testing.T) {
	env := sim.NewEnv(1)
	rl := NewRowLocks(env)
	a := xs(rk(0, 1, 1, ""), rk(0, 2, 1, "x"))
	b := xs(rk(0, 2, 1, "x"), rk(1, 1, 4, ""))
	var order []string
	var waits int
	env.Spawn("A", func(p *sim.Proc) {
		if rl.Acquire(p, a, nil) {
			t.Error("first acquirer waited")
		}
		p.Sleep(time.Millisecond)
		order = append(order, "A")
		rl.Release(p, a)
	})
	env.Spawn("B", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond) // arrive strictly second
		if !rl.Acquire(p, b, func() { waits++ }) {
			t.Error("overlapping acquirer did not wait")
		}
		order = append(order, "B")
		rl.Release(p, b)
	})
	env.MustRun()
	if fmt.Sprint(order) != "[A B]" {
		t.Fatalf("grant order %v, want [A B]", order)
	}
	if waits != 1 {
		t.Fatalf("onWait called %d times, want 1", waits)
	}
	if rl.Stats.Conflicts != 1 || rl.Stats.WaitTotal <= 0 {
		t.Fatalf("contention not counted: %+v", rl.Stats)
	}
	if rl.Stats.Acquires != int64(len(a)+len(b)) {
		t.Fatalf("acquires=%d, want %d", rl.Stats.Acquires, len(a)+len(b))
	}
	if rl.Stats.SharedGrants != 0 {
		t.Fatalf("exclusive-only workload counted %d shared grants", rl.Stats.SharedGrants)
	}
}

// TestSharedHoldersRunConcurrently pins the S/S compatibility that
// recovers group-commit overlap: two Shared acquirers of one row hold
// it at the same virtual time, a later Exclusive acquirer waits for
// both, and the counters attribute the grants correctly.
func TestSharedHoldersRunConcurrently(t *testing.T) {
	env := sim.NewEnv(1)
	rl := NewRowLocks(env)
	row := rk(0, 1, 7, "")
	var concurrent bool
	hold := func(name string, start, hold time.Duration) {
		env.Spawn(name, func(p *sim.Proc) {
			p.Sleep(start)
			if rl.Acquire(p, []Req{S(row)}, nil) {
				t.Errorf("%s: shared acquirer waited", name)
			}
			if sh, ex := rl.Holders(row); sh == 2 && !ex {
				concurrent = true
			}
			p.Sleep(hold)
			rl.Release(p, []Req{S(row)})
		})
	}
	hold("S1", 0, time.Millisecond)
	hold("S2", 100*time.Microsecond, time.Millisecond)
	var xAt time.Duration
	env.Spawn("X1", func(p *sim.Proc) {
		p.Sleep(200 * time.Microsecond)
		if !rl.Acquire(p, []Req{X(row)}, nil) {
			t.Error("exclusive acquirer did not wait for the sharers")
		}
		xAt = p.Now()
		if sh, ex := rl.Holders(row); sh != 0 || !ex {
			t.Errorf("exclusive grant with holders (%d shared, excl=%v)", sh, ex)
		}
		rl.Release(p, []Req{X(row)})
	})
	env.MustRun()
	if !concurrent {
		t.Fatal("the two shared holders were never concurrent")
	}
	// X must wait for the later sharer's release (S2 releases at 1.1ms).
	if want := 1100 * time.Microsecond; xAt != want {
		t.Fatalf("exclusive granted at %v, want %v (after both sharers)", xAt, want)
	}
	if rl.Stats.SharedGrants != 2 || rl.Stats.Conflicts != 1 {
		t.Fatalf("grants misattributed: %+v", rl.Stats)
	}
	if rl.Len() != 0 {
		t.Fatalf("%d lock rows survive the workload", rl.Len())
	}
}

// TestQueuedWriterBlocksNewSharers pins the no-starvation rule: once an
// Exclusive acquirer is queued behind a Shared holder, later Shared
// acquirers queue behind it instead of riding the open Shared grant —
// so a writer is never starved by a stream of readers.
func TestQueuedWriterBlocksNewSharers(t *testing.T) {
	env := sim.NewEnv(1)
	rl := NewRowLocks(env)
	row := rk(0, 1, 3, "")
	var order []string
	env.Spawn("S1", func(p *sim.Proc) {
		rl.Acquire(p, []Req{S(row)}, nil)
		p.Sleep(time.Millisecond)
		order = append(order, "S1")
		rl.Release(p, []Req{S(row)})
	})
	env.Spawn("X1", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		rl.Acquire(p, []Req{X(row)}, nil)
		order = append(order, "X1")
		rl.Release(p, []Req{X(row)})
	})
	env.Spawn("S2", func(p *sim.Proc) {
		p.Sleep(200 * time.Microsecond)
		if qs := rl.QueueLen(row); qs != 1 {
			t.Errorf("arriving sharer sees %d queued, want 1 (the writer)", qs)
		}
		if !rl.Acquire(p, []Req{S(row)}, nil) {
			t.Error("late sharer was granted past the queued writer")
		}
		order = append(order, "S2")
		rl.Release(p, []Req{S(row)})
	})
	env.MustRun()
	if fmt.Sprint(order) != "[S1 X1 S2]" {
		t.Fatalf("grant order %v, want [S1 X1 S2]", order)
	}
}

// TestReleaseFreesRowsOnAbort pins that abort-path release (no commit
// happened, same code path) fully unwinds: every row is unlocked, the
// table garbage-collects to empty, and a later acquirer is uncontended.
func TestReleaseFreesRowsOnAbort(t *testing.T) {
	env := sim.NewEnv(1)
	rl := NewRowLocks(env)
	reqs := []Req{X(rk(0, 1, 1, "")), S(rk(0, 2, 1, "x")), X(rk(2, 1, 9, ""))}
	env.Spawn("abort", func(p *sim.Proc) {
		rl.Acquire(p, reqs, nil)
		for _, r := range reqs {
			if !rl.Held(r.Key) {
				t.Errorf("key %v not held after acquire", r.Key)
			}
		}
		// Simulated abort: release without any commit work.
		rl.Release(p, reqs)
		if rl.Len() != 0 {
			t.Errorf("%d lock rows survive release", rl.Len())
		}
	})
	env.MustRun()
	env.Spawn("retry", func(p *sim.Proc) {
		if rl.Acquire(p, reqs, nil) {
			t.Error("acquire after full release had to wait")
		}
		rl.Release(p, reqs)
	})
	env.MustRun()
	if rl.Stats.Conflicts != 0 {
		t.Fatalf("unexpected conflicts: %+v", rl.Stats)
	}
}

// TestUpgradeSoleHolder pins the in-place upgrade: the sole Shared
// holder of a row converts to Exclusive without waiting or charging,
// the conversion is visible to Holders, and — the Release contract for
// upgraded keys — the key is released exactly once, whatever mode it
// was acquired in, with a second release panicking like any other
// non-held key.
func TestUpgradeSoleHolder(t *testing.T) {
	env := sim.NewEnv(1)
	rl := NewRowLocks(env)
	row := rk(0, 1, 5, "")
	env.Spawn("p", func(p *sim.Proc) {
		rl.Acquire(p, []Req{S(row)}, nil)
		before := p.Now()
		if !rl.TryUpgrade(p, row) {
			t.Fatal("sole holder could not upgrade in place")
		}
		if p.Now() != before {
			t.Fatal("in-place upgrade charged virtual time")
		}
		if sh, ex := rl.Holders(row); sh != 0 || !ex {
			t.Fatalf("after upgrade: %d shared, excl=%v; want exclusive only", sh, ex)
		}
		// Idempotent on an already-exclusive key.
		if !rl.TryUpgrade(p, row) {
			t.Fatal("upgrade of an already-exclusive key must report true")
		}
		// Exactly one release, regardless of the mode history.
		rl.Release(p, []Req{S(row)})
		if rl.Len() != 0 {
			t.Fatalf("%d lock rows survive the release of an upgraded key", rl.Len())
		}
		defer func() {
			if recover() == nil {
				t.Error("second release of an upgraded key did not panic")
			}
		}()
		rl.Release(p, []Req{S(row)})
	})
	env.MustRun()
	if rl.Stats.Upgrades != 1 {
		t.Fatalf("upgrades=%d, want 1 (the idempotent retry must not count)", rl.Stats.Upgrades)
	}
}

// TestUpgradeRefusedWithOtherSharers pins the fallback contract: with a
// second Shared holder present the table refuses the in-place upgrade
// (waiting here could deadlock two upgraders against each other), both
// holds survive untouched, and the caller is expected to release and
// re-acquire in canonical order instead.
func TestUpgradeRefusedWithOtherSharers(t *testing.T) {
	env := sim.NewEnv(1)
	rl := NewRowLocks(env)
	row := rk(0, 1, 6, "")
	env.Spawn("A", func(p *sim.Proc) {
		rl.Acquire(p, []Req{S(row)}, nil)
		p.Sleep(time.Millisecond)
		if rl.TryUpgrade(p, row) {
			t.Error("upgrade granted despite another sharer")
		}
		if sh, ex := rl.Holders(row); sh != 2 || ex {
			t.Errorf("refused upgrade disturbed holders: %d shared, excl=%v", sh, ex)
		}
		rl.Release(p, []Req{S(row)})
	})
	env.Spawn("B", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		rl.Acquire(p, []Req{S(row)}, nil)
		p.Sleep(2 * time.Millisecond)
		rl.Release(p, []Req{S(row)})
	})
	env.MustRun()
	if rl.Stats.Upgrades != 0 {
		t.Fatalf("refused upgrade was counted: %+v", rl.Stats)
	}
}

// TestOrderedAcquisitionAvoidsDeadlock drives many processes through
// repeated acquisitions of overlapping multi-row footprints with mixed
// modes — the all-pairs crossing pattern that deadlocks any unordered
// two-lock scheme — and relies on the simulator's deadlock detector:
// MustRun panics if parked processes remain with no pending events.
func TestOrderedAcquisitionAvoidsDeadlock(t *testing.T) {
	env := sim.NewEnv(7)
	rl := NewRowLocks(env)
	rng := env.RNG("rowlock.deadlock")
	const rows = 6
	for i := 0; i < 16; i++ {
		i := i
		env.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			for step := 0; step < 50; step++ {
				// Pick 2-4 distinct rows in random draw order and random
				// modes; SortReqs imposes the canonical order that
				// prevents the cycle.
				n := 2 + rng.Intn(3)
				var reqs []Req
				for j := 0; j < n; j++ {
					k := rk(rng.Intn(2), Kind(1+rng.Intn(2)), uint64(rng.Intn(rows)), "")
					if rng.Intn(2) == 0 {
						reqs = append(reqs, S(k))
					} else {
						reqs = append(reqs, X(k))
					}
				}
				reqs = SortReqs(reqs)
				rl.Acquire(p, reqs, nil)
				p.Sleep(time.Duration(1+rng.Intn(50)) * time.Microsecond)
				rl.Release(p, reqs)
			}
		})
	}
	env.MustRun()
	if rl.Len() != 0 {
		t.Fatalf("%d lock rows survive the workload", rl.Len())
	}
	if rl.Stats.Conflicts == 0 {
		t.Fatal("workload never contended: it does not exercise the ordering")
	}
	if rl.Stats.SharedGrants == 0 {
		t.Fatal("workload never took a shared lock: it does not exercise the modes")
	}
}
