package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv(1)
	var at time.Duration
	env.Spawn("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		at = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Millisecond {
		t.Fatalf("woke at %v, want 10ms", at)
	}
}

func TestZeroSleepRuns(t *testing.T) {
	env := NewEnv(1)
	ran := false
	env.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		ran = true
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("proc did not run")
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		env := NewEnv(7)
		var order []string
		for _, n := range []string{"a", "b", "c"} {
			name := n
			env.Spawn(name, func(p *Proc) {
				p.Sleep(5 * time.Millisecond)
				order = append(order, name)
				p.Sleep(5 * time.Millisecond)
				order = append(order, name)
			})
		}
		env.MustRun()
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		got := run()
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("run %d order %v differs from %v", i, got, first)
			}
		}
	}
	// Ties broken by spawn order.
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order %v, want %v", first, want)
		}
	}
}

func TestSpawnAfter(t *testing.T) {
	env := NewEnv(1)
	var at time.Duration
	env.SpawnAfter("late", 3*time.Second, func(p *Proc) { at = p.Now() })
	env.MustRun()
	if at != 3*time.Second {
		t.Fatalf("started at %v, want 3s", at)
	}
}

func TestAfterCallback(t *testing.T) {
	env := NewEnv(1)
	var at time.Duration
	env.Spawn("a", func(p *Proc) { p.Sleep(time.Second) })
	env.After(500*time.Millisecond, func() { at = env.Now() })
	env.MustRun()
	if at != 500*time.Millisecond {
		t.Fatalf("callback at %v, want 500ms", at)
	}
}

func TestMutexFIFOAndExclusion(t *testing.T) {
	env := NewEnv(1)
	mu := NewMutex(env, "m")
	var order []string
	inside := 0
	worker := func(name string, delay time.Duration) {
		env.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			mu.Lock(p)
			inside++
			if inside != 1 {
				t.Errorf("mutual exclusion violated: %d inside", inside)
			}
			p.Sleep(10 * time.Millisecond)
			order = append(order, name)
			inside--
			mu.Unlock(p)
		})
	}
	worker("a", 0)
	worker("b", 1*time.Millisecond)
	worker("c", 2*time.Millisecond)
	env.MustRun()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want FIFO %v", order, want)
		}
	}
	if mu.Contended != 2 {
		t.Fatalf("Contended = %d, want 2", mu.Contended)
	}
	if mu.Locked() {
		t.Fatal("mutex still locked at end")
	}
}

func TestResourceCapacity(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "srv", 2)
	maxBusy := 0
	done := 0
	for i := 0; i < 6; i++ {
		env.Spawn("w", func(p *Proc) {
			r.Acquire(p)
			if r.InUse() > maxBusy {
				maxBusy = r.InUse()
			}
			p.Sleep(10 * time.Millisecond)
			r.Release(p)
			done++
		})
	}
	env.MustRun()
	if maxBusy != 2 {
		t.Fatalf("max in use %d, want 2", maxBusy)
	}
	if done != 6 {
		t.Fatalf("done %d, want 6", done)
	}
	// Six 10ms jobs through 2 slots: finishes at 30ms.
	if env.Now() != 30*time.Millisecond {
		t.Fatalf("end time %v, want 30ms", env.Now())
	}
}

func TestResourceUse(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "disk", 1)
	env.Spawn("a", func(p *Proc) { r.Use(p, 5*time.Millisecond) })
	env.Spawn("b", func(p *Proc) { r.Use(p, 5*time.Millisecond) })
	env.MustRun()
	if env.Now() != 10*time.Millisecond {
		t.Fatalf("end %v, want 10ms (serialized)", env.Now())
	}
	if r.BusyTotal != 10*time.Millisecond {
		t.Fatalf("busy %v, want 10ms", r.BusyTotal)
	}
}

// TestResourceWaitIdle: WaitIdle returns at once on an idle resource
// and otherwise when the last slot is released, not when a slot is
// handed from a holder to a waiter.
func TestResourceWaitIdle(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "srv", 1)
	for i := 0; i < 2; i++ {
		env.Spawn("w", func(p *Proc) { r.Use(p, 10*time.Millisecond) })
	}
	var idleAt []time.Duration
	for _, at := range []time.Duration{0, 5 * time.Millisecond, 30 * time.Millisecond} {
		env.Spawn("drain", func(p *Proc) {
			p.Sleep(at)
			r.WaitIdle(p)
			idleAt = append(idleAt, p.Now())
		})
	}
	env.MustRun()
	want := []time.Duration{20 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if !slices.Equal(idleAt, want) {
		t.Fatalf("WaitIdle returned at %v, want %v", idleAt, want)
	}
	if r.Acquires != 2 {
		t.Fatalf("WaitIdle took slots: %d acquires, want 2", r.Acquires)
	}
}

func TestWaitGroup(t *testing.T) {
	env := NewEnv(1)
	wg := NewWaitGroup(env)
	var doneAt time.Duration
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		wg.Go("w", func(p *Proc) { p.Sleep(d) })
	}
	env.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	env.MustRun()
	if doneAt != 3*time.Millisecond {
		t.Fatalf("wait released at %v, want 3ms", doneAt)
	}
}

func TestWaitGroupImmediate(t *testing.T) {
	env := NewEnv(1)
	wg := NewWaitGroup(env)
	released := false
	env.Spawn("waiter", func(p *Proc) {
		wg.Wait(p) // count already zero
		released = true
	})
	env.MustRun()
	if !released {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestQueueBlocksConsumer(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue(env)
	var got []int
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond)
			q.Put(i)
		}
	})
	env.MustRun()
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("got %v, want [0 1 2]", got)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	env := NewEnv(1)
	c := NewCond(env)
	woken := 0
	for i := 0; i < 3; i++ {
		env.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	env.Spawn("sig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Signal()
		p.Sleep(time.Millisecond)
		c.Broadcast()
	})
	env.MustRun()
	if woken != 3 {
		t.Fatalf("woken %d, want 3", woken)
	}
}

func TestDeadlockDetected(t *testing.T) {
	env := NewEnv(1)
	c := NewCond(env)
	env.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	if err := env.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewEnv(42).RNG("x").Int63()
	b := NewEnv(42).RNG("x").Int63()
	c := NewEnv(43).RNG("x").Int63()
	d := NewEnv(42).RNG("y").Int63()
	if a != b {
		t.Fatal("same seed+name differ")
	}
	if a == c {
		t.Fatal("different seeds collide")
	}
	if a == d {
		t.Fatal("different names collide")
	}
}

func TestManyProcsStress(t *testing.T) {
	env := NewEnv(9)
	r := NewResource(env, "r", 4)
	n := 0
	for i := 0; i < 500; i++ {
		env.Spawn("w", func(p *Proc) {
			for j := 0; j < 5; j++ {
				r.Use(p, time.Microsecond*time.Duration(1+j))
			}
			n++
		})
	}
	env.MustRun()
	if n != 500 {
		t.Fatalf("completed %d, want 500", n)
	}
}

func TestRunReentranceRejected(t *testing.T) {
	env := NewEnv(1)
	var inner error
	env.Spawn("a", func(p *Proc) {
		inner = env.Run() // illegal: Run from inside the simulation
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if inner == nil {
		t.Fatal("nested Run should error")
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv(1)
	panicked := false
	env.Spawn("a", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Sleep(-1)
	})
	env.MustRun()
	if !panicked {
		t.Fatal("negative sleep must panic")
	}
}

// runUnwound calls env.Run on a goroutine of its own and reports how that
// goroutine ended: whether Run returned, and the panic value if it
// panicked. Neither means it was unwound by runtime.Goexit.
func runUnwound(env *Env) (returned bool, panicked any) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		env.Run()
		returned = true
	}()
	<-done
	return returned, panicked
}

// rerun checks that env runs again after a proc died in its last Run,
// picking the simulation up where the unwinding left it.
func rerun(t *testing.T, env *Env, survived *bool) {
	t.Helper()
	if err := env.Run(); err != nil || !*survived || env.live != 0 {
		t.Fatalf("second Run: err %v, survivor finished %v, live %d; want nil, true, 0", err, *survived, env.live)
	}
}

func TestGoexitInProcDoesNotWedgeKernel(t *testing.T) {
	// A process killed by runtime.Goexit (what t.Fatal and t.SkipNow do)
	// takes the goroutine that called Run with it, so a failed test stops
	// instead of simulating on.
	env := NewEnv(1)
	deferred, reached := false, false
	env.Spawn("dying", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	env.Spawn("survivor", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		reached = true
	})
	if returned, panicked := runUnwound(env); returned || panicked != nil {
		t.Fatalf("Run returned (%v) or panicked (%v), want its caller unwound by Goexit", returned, panicked)
	}
	if !deferred {
		t.Error("the dying proc's deferred function did not run")
	}
	if reached {
		t.Error("the simulation ran on after the Goexit")
	}
	if env.live != 1 || env.running {
		t.Fatalf("live %d, running %v after the unwind; want 1 (the survivor) and false", env.live, env.running)
	}
	rerun(t, env, &reached)
}

func TestPanicInProcReachesRunCaller(t *testing.T) {
	env := NewEnv(1)
	deferred, reached := false, false
	env.Spawn("dying", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	env.Spawn("survivor", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		reached = true
	})
	if returned, panicked := runUnwound(env); returned || panicked != "boom" {
		t.Fatalf("Run returned (%v), recovered %v; want the proc's panic value", returned, panicked)
	}
	if !deferred || env.live != 1 || env.running {
		t.Fatalf("deferred ran %v, live %d, running %v; want true, 1, false", deferred, env.live, env.running)
	}
	rerun(t, env, &reached)
}

func TestResourceReleaseByOtherProcAllowed(t *testing.T) {
	// Resources are counters, not owner-checked locks: acquire in one
	// process, release in another (used by handoff patterns).
	env := NewEnv(1)
	r := NewResource(env, "r", 1)
	env.Spawn("a", func(p *Proc) { r.Acquire(p) })
	env.Spawn("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Release(p)
	})
	env.MustRun()
	if r.InUse() != 0 {
		t.Fatalf("in use: %d", r.InUse())
	}
}
