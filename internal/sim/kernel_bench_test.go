package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestEventQueueZeroAllocSteadyState pins the tentpole property of the
// typed event queue: once the backing slice has grown to the run's
// high-water mark, scheduling and dispatching events allocates nothing.
// The old container/heap queue boxed every event through `any` — one
// allocation per Push and one per Pop.
func TestEventQueueZeroAllocSteadyState(t *testing.T) {
	env := NewEnv(1)
	tick := func() {}
	// Warm the queue past the sizes used below.
	for i := 0; i < 128; i++ {
		env.After(time.Duration(i)*time.Microsecond, tick)
	}
	env.MustRun()
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			env.After(time.Duration(i%7)*time.Microsecond, tick)
		}
		env.MustRun()
	})
	if avg != 0 {
		t.Fatalf("event queue allocates in steady state: %.2f allocs per 64-event burst, want 0", avg)
	}
}

// TestOwnWakeFastPath pins the three boundary cases of the shortcut in
// Sleep: it is taken only when the sleeper's own wake would be the very
// next event popped, and taking it consumes no sequence number — one
// consumed would also show up as a changed golden order (order_test.go).
func TestOwnWakeFastPath(t *testing.T) {
	const d = 10 * time.Microsecond

	t.Run("head one tick later: taken", func(t *testing.T) {
		env := NewEnv(1)
		env.Spawn("z", func(p *Proc) {
			env.After(d+1, func() {})
			seq, st := env.seq, env.Stats()
			p.Sleep(d)
			if env.Now() != d {
				t.Errorf("clock %v after Sleep(%v), want %v", env.Now(), d, d)
			}
			if env.seq != seq {
				t.Error("fast path consumed a sequence number")
			}
			if got := env.Stats(); got.FastSleeps != st.FastSleeps+1 || got.Events != st.Events || got.Switches != st.Switches {
				t.Errorf("stats %+v after %+v: want one fast sleep, no event, no switch", got, st)
			}
		})
		env.MustRun()
	})

	t.Run("head at the same instant: not taken", func(t *testing.T) {
		env := NewEnv(1)
		var order []string
		env.Spawn("z", func(p *Proc) {
			// Due at now+d too, with a lower sequence number.
			env.SpawnAfter("earlier", d, func(*Proc) { order = append(order, "earlier") })
			st := env.Stats()
			p.Sleep(d)
			order = append(order, "sleeper")
			if got := env.Stats(); got.FastSleeps != st.FastSleeps || got.Switches != st.Switches+2 {
				t.Errorf("stats %+v after %+v: want no fast sleep and two switches", got, st)
			}
		})
		env.MustRun()
		if len(order) != 2 || order[0] != "earlier" {
			t.Fatalf("order %v, want the earlier-sequenced event first", order)
		}
	})

	t.Run("callback inside the interval: not taken", func(t *testing.T) {
		env := NewEnv(1)
		var sawAt time.Duration = -1
		env.Spawn("z", func(p *Proc) {
			env.After(d/2, func() { sawAt = env.Now() })
			st := env.Stats()
			p.Sleep(d)
			if got := env.Stats(); got.FastSleeps != st.FastSleeps || got.Events != st.Events+2 {
				t.Errorf("stats %+v after %+v: want no fast sleep and two events", got, st)
			}
		})
		env.MustRun()
		if sawAt != d/2 {
			t.Fatalf("callback saw clock %v, want the un-advanced %v", sawAt, d/2)
		}
	})
}

// TestCarrierReuse checks that procs run on the coroutines finished procs
// left behind, and that a proc holds none before it first runs.
func TestCarrierReuse(t *testing.T) {
	env := NewEnv(1)
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	late := env.SpawnAfter("late", time.Second, body)
	for wave := 0; wave < 4; wave++ {
		env.After(time.Duration(wave)*time.Millisecond, func() {
			if late.c != nil {
				t.Error("a proc that has not run yet holds a coroutine")
			}
			for i := 0; i < 100; i++ {
				env.Spawn("short", body)
			}
		})
	}
	env.MustRun()
	if !late.done {
		t.Fatal("late proc never ran")
	}
	if st := env.Stats(); st.Spawns != 401 || st.Carriers > 100 {
		t.Fatalf("%d spawns ran on %d coroutines, want 401 on at most 100", st.Spawns, st.Carriers)
	}
}

// TestGoRecyclesProcs checks that Go reuses the Procs of finished Go
// processes, within a Run and across Runs, that a recycled process parks
// and wakes like a fresh one, and that a Spawned process, whose handle
// the caller holds, is never reused.
func TestGoRecyclesProcs(t *testing.T) {
	env := NewEnv(1)
	procs := map[*Proc]bool{}
	gate := NewResource(env, "gate", 2)
	ran := 0
	body := func(p *Proc) {
		if p.Name() != "bg" {
			t.Errorf("recycled proc named %q, want %q", p.Name(), "bg")
		}
		procs[p] = true
		gate.Acquire(p) // 8 at once: six of them park
		p.Sleep(time.Microsecond)
		gate.Release(p)
		ran++
	}
	held := env.Spawn("held", func(p *Proc) { p.Sleep(time.Microsecond) })
	for run := 0; run < 3; run++ {
		env.Spawn("driver", func(p *Proc) {
			for wave := 0; wave < 4; wave++ {
				for i := 0; i < 8; i++ {
					env.Go("bg", body)
				}
				p.Sleep(time.Millisecond)
			}
		})
		env.MustRun()
	}
	if ran != 96 {
		t.Fatalf("%d Go processes ran, want 96", ran)
	}
	if len(procs) != 8 {
		t.Fatalf("96 Go processes used %d Procs, want the 8 alive at once", len(procs))
	}
	if procs[held] || !held.done || held.Name() != "held" {
		t.Fatal("a Spawned proc was reused")
	}
	if st := env.Stats(); st.Spawns != 100 {
		t.Fatalf("Spawns = %d, want 100 (every Go counts)", st.Spawns)
	}
}

// TestGoAllocsNothing pins the point of Go: once a finished process has
// left its Proc and its carrier behind, starting, running and finishing
// another allocates nothing.
func TestGoAllocsNothing(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates")
			}
		}
	}
	env := NewEnv(1)
	n := 0
	body := func(p *Proc) {
		p.Sleep(time.Microsecond)
		n++
	}
	env.Spawn("driver", func(p *Proc) {
		spawn := func() {
			env.Go("bg", body)
			p.Sleep(2 * time.Microsecond)
		}
		spawn()
		if avg := testing.AllocsPerRun(1000, spawn); avg != 0 {
			t.Errorf("a warm Go allocates %v, want 0", avg)
		}
	})
	env.MustRun()
	if n != 1002 {
		t.Fatalf("%d Go processes ran, want 1002", n)
	}
}

// TestNoGoroutineOutlivesRun checks that Run stops its idle carriers: a
// coroutine is a goroutine, and none may be left once Run has returned.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	before := settledGoroutines()
	env := NewEnv(1)
	for _, runs := range []int{1, 50} {
		for r := 0; r < runs; r++ {
			for i := 0; i < 8; i++ {
				env.Spawn("w", func(p *Proc) { p.Sleep(time.Millisecond) })
			}
			env.MustRun()
		}
		if got := runtime.NumGoroutine(); got != before {
			t.Fatalf("%d goroutines after %d more Run(s), want the starting %d", got, runs, before)
		}
	}
}

// settledGoroutines returns runtime.NumGoroutine() once it has read the
// same for 20 consecutive milliseconds, so that goroutines an earlier
// test left on their way out are not counted as the starting set.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 20; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, same = m, 0
		} else {
			same++
		}
	}
	return n
}

// BenchmarkKernelTimerCascade measures the fn-event hot loop: a chain of
// After timers re-arming at each firing, the pattern behind leases,
// retries, and flush timers. Runs entirely in the kernel loop — no
// coroutine switches.
func BenchmarkKernelTimerCascade(b *testing.B) {
	env := NewEnv(1)
	b.ReportAllocs()
	for b.Loop() {
		n := 1000
		var arm func()
		arm = func() {
			if n == 0 {
				return
			}
			n--
			env.After(time.Microsecond, arm)
		}
		arm()
		env.MustRun()
	}
}

// BenchmarkKernelSpawnChurn measures process lifecycle cost: spawn a
// process, let it sleep once and exit, repeat. All 100 start at once in
// a fresh Run, so every one of them creates its coroutine: this is the
// cold-spawn cost, which carrier reuse does not help.
func BenchmarkKernelSpawnChurn(b *testing.B) {
	env := NewEnv(1)
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < 100; i++ {
			env.Spawn("churn", body)
		}
		env.MustRun()
	}
}

// BenchmarkKernelContendedMutex measures the park/unpark switch path
// under FIFO contention.
func BenchmarkKernelContendedMutex(b *testing.B) {
	env := NewEnv(1)
	mu := NewMutex(env, "bench")
	body := func(p *Proc) {
		for i := 0; i < 25; i++ {
			mu.Lock(p)
			p.Sleep(time.Microsecond)
			mu.Unlock(p)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < 4; i++ {
			env.Spawn("worker", body)
		}
		env.MustRun()
	}
}
