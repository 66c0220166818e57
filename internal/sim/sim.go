// Package sim provides a deterministic, coroutine-based discrete-event
// simulation kernel with a virtual clock.
//
// Model code runs inside simulated processes (Proc). A process advances
// virtual time by calling Sleep, or blocks on synchronization primitives
// (Mutex, Resource, Queue, WaitGroup, Cond) built on the kernel's
// park/unpark mechanism. Exactly one process executes at a time; the kernel
// resumes the process whose next event has the smallest timestamp,
// breaking ties by event sequence number, so runs are fully deterministic.
//
// The kernel is built for million-event runs (docs/simulator.md):
// processes are iter.Pull coroutines that the loop in Run resumes by a
// direct switch, never through the Go scheduler, and a finished process
// leaves its coroutine to the next one spawned; the event queue is a typed
// binary heap that never boxes events through interfaces; kernel-only
// callback events (After) run inline in the loop without a switch; a
// process started with Go leaves its Proc to the next Go; a Sleep
// whose own wake would be the next event popped advances the clock and
// keeps control; RNG streams are cached handles (Stream) instead of
// per-call map lookups; Stats counts it all. None of these shortcuts may
// change event order, which TestKernelEventOrderGolden pins.
//
// A panic or a runtime.Goexit (t.Fatal, t.SkipNow) inside a process runs
// that process's deferred functions, then unwinds the goroutine that
// called Run — a panic is recoverable around Run, value intact — and Run
// may be called again. The other processes stay suspended where they
// blocked, as after a deadlock return: nothing else outlives its Run.
//
// The kernel is not safe for use from multiple OS threads outside the
// simulated processes: all interaction must happen through a Proc.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// Env is a simulation environment: a virtual clock plus the event queue.
// Create one with NewEnv, add root processes with Spawn, then call Run.
type Env struct {
	now     time.Duration
	events  eventQueue
	seq     uint64
	live    int // procs spawned and not yet finished
	running bool
	seed    int64
	rngs    map[string]*rand.Rand
	stats   Stats
	// idle is the LIFO of carriers left by finished procs: a coroutine
	// costs a dozen allocations to create, so spawn-heavy models
	// (per-request processes, timer respawns) reuse these instead.
	idle []*carrier
	// free is the LIFO of finished procs started by Go, which nobody
	// holds a reference to: the next Go reuses one instead of allocating.
	free []*Proc
}

// Stats counts kernel work since NewEnv. All five are deterministic.
type Stats struct {
	Events     int64 // events popped by Run: proc wakes and After callbacks
	Switches   int64 // kernel-to-proc coroutine switches (the proc wakes)
	FastSleeps int64 // Sleeps that kept control: no event, no switch
	Spawns     int64 // procs created
	Carriers   int64 // coroutines created; Spawns minus this were reuses
}

// NewEnv returns an empty environment whose RNG streams derive from seed.
// The same seed always produces the same simulation.
func NewEnv(seed int64) *Env {
	return &Env{seed: seed, rngs: make(map[string]*rand.Rand)}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Stats returns the kernel's counters.
func (e *Env) Stats() Stats { return e.stats }

// Stream returns a deterministic random stream identified by name.
// Streams are independent of each other and of event interleaving, so
// adding a new consumer does not perturb existing ones. The handle is
// resolved once per name: hot paths should call Stream at setup time
// and keep the *rand.Rand instead of re-resolving per draw.
func (e *Env) Stream(name string) *rand.Rand {
	r, ok := e.rngs[name]
	if !ok {
		h := uint64(14695981039346656037)
		for i := 0; i < len(name); i++ {
			h ^= uint64(name[i])
			h *= 1099511628211
		}
		r = rand.New(rand.NewSource(e.seed ^ int64(h)))
		e.rngs[name] = r
	}
	return r
}

// RNG is the compatibility wrapper around Stream: same stream, resolved
// per call. Per-event call sites should hold a Stream handle instead.
func (e *Env) RNG(name string) *rand.Rand { return e.Stream(name) }

// event is one queue entry: wake a proc or run a kernel callback at a
// virtual instant. Events are stored by value in the queue's backing
// slice — scheduling allocates nothing once the slice has grown to the
// run's high-water mark.
type event struct {
	at  time.Duration
	seq uint64
	p   *Proc  // proc to wake, or nil for fn-only events
	fn  func() // optional callback run in the kernel loop
}

// eventQueue is a typed binary min-heap ordered by (at, seq). The
// comparator is a total order (seq is unique), so the pop sequence is
// exactly the pop sequence of any correct heap over the same events —
// including the container/heap implementation this replaced.
type eventQueue struct {
	a []event
}

func eventLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func (q *eventQueue) len() int { return len(q.a) }

func (q *eventQueue) push(ev event) {
	q.a = append(q.a, ev)
	i := len(q.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&q.a[i], &q.a[parent]) {
			break
		}
		q.a[i], q.a[parent] = q.a[parent], q.a[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.a[0]
	n := len(q.a) - 1
	q.a[0] = q.a[n]
	q.a[n] = event{} // drop fn/proc references for the GC
	q.a = q.a[:n]
	if n > 1 {
		q.siftDown()
	}
	return top
}

func (q *eventQueue) siftDown() {
	n := len(q.a)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && eventLess(&q.a[r], &q.a[l]) {
			m = r
		}
		if !eventLess(&q.a[m], &q.a[i]) {
			return
		}
		q.a[i], q.a[m] = q.a[m], q.a[i]
		i = m
	}
}

func (e *Env) schedule(ev event) {
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

func (e *Env) scheduleAt(at time.Duration, p *Proc) {
	e.schedule(event{at: at, p: p})
}

// Proc is a simulated process. All blocking primitives take the Proc so the
// kernel knows which coroutine to suspend.
type Proc struct {
	env     *Env
	c       *carrier // nil until the first wake and again once done
	fn      func(p *Proc)
	name    string
	waiting bool // parked with no scheduled event: unpark may wake it
	done    bool
	recycle bool // started by Go: returns to Env.free when done
}

// carrier is a coroutine that runs procs one after another: p to completion,
// then whichever proc the kernel has put in p when it next resumes it.
type carrier struct {
	p     *Proc
	next  func() (struct{}, bool) // kernel side: resume
	yield func(struct{}) bool     // proc side: suspend
	stop  func()
}

func (e *Env) newCarrier() *carrier {
	e.stats.Carriers++
	c := &carrier{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.p.run()
			if !yield(struct{}{}) {
				return // stopped while idle, by Run on its way out
			}
		}
	})
	return c
}

// run is deferred-safe: a proc killed by a panic or runtime.Goexit still
// counts as finished while the unwinding carries on into Run's caller.
func (p *Proc) run() {
	defer func() {
		p.done = true
		p.fn = nil // a finished proc still referenced must not pin its closure
		p.env.live--
	}()
	p.fn(p)
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Spawn creates a process that will start executing fn at the current
// virtual time (after already-scheduled events at this time).
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAfter(name, 0, fn)
}

// SpawnAfter creates a process that starts after delay of virtual time.
func (e *Env) SpawnAfter(name string, delay time.Duration, fn func(p *Proc)) *Proc {
	if delay < 0 {
		panic("sim: negative spawn delay")
	}
	p := &Proc{env: e, fn: fn, name: name}
	e.live++
	e.stats.Spawns++
	e.scheduleAt(e.now+delay, p)
	return p
}

// Go starts a process at the current virtual time, like Spawn, for a
// caller that never needs its handle: it returns no *Proc, so once fn
// returns the kernel recycles the Proc for a later Go, the way it
// recycles carriers. A warm Go allocates nothing. fn must not let p
// escape past its return.
func (e *Env) Go(name string, fn func(p *Proc)) {
	var p *Proc
	if n := len(e.free); n > 0 {
		p, e.free = e.free[n-1], e.free[:n-1]
	} else {
		p = &Proc{}
	}
	*p = Proc{env: e, fn: fn, name: name, recycle: true}
	e.live++
	e.stats.Spawns++
	e.scheduleAt(e.now, p)
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.env
	at := e.now + d
	if e.events.len() == 0 || e.events.a[0].at > at {
		// Own-wake fast path: the event this Sleep would schedule
		// carries the highest sequence number at its instant, so it is
		// the next one popped iff nothing else is due up to and
		// including that instant. Then suspending only to be resumed
		// at once is two switches for nothing: advance the clock and
		// keep control. No sequence number is used; order is unchanged.
		e.now = at
		e.stats.FastSleeps++
		return
	}
	e.scheduleAt(at, p)
	p.block()
}

// park blocks the process until some other process unparks it. The caller
// must guarantee an eventual Unpark, otherwise Run reports a deadlock.
func (p *Proc) park() {
	p.waiting = true
	p.block()
}

// unpark schedules p to resume at the current virtual time.
func (e *Env) unpark(p *Proc) {
	if !p.waiting {
		panic(fmt.Sprintf("sim: unpark of non-parked proc %q", p.name))
	}
	p.waiting = false
	e.scheduleAt(e.now, p)
}

// block switches back to the kernel loop and returns when it resumes p.
func (p *Proc) block() { p.c.yield(struct{}{}) }

// After schedules fn to run in the kernel context after delay. fn must not
// block; it is intended for timers and unparks. Model code should prefer
// spawning a process.
func (e *Env) After(delay time.Duration, fn func()) {
	e.schedule(event{at: e.now + delay, fn: fn})
}

// Run executes events until none remain. It returns an error if live
// processes remain parked with an empty event queue (a model deadlock).
//
// Kernel-only fn events — timers, and the cascades they trigger by
// scheduling further same-instant events — run inline in this loop, so
// an entire timer/unpark cascade costs heap operations only; coroutine
// switches happen exclusively for proc wakeups, one in and one out.
func (e *Env) Run() error {
	if e.running {
		return fmt.Errorf("sim: Run reentered")
	}
	e.running = true
	defer func() {
		e.running = false
		// Idle carriers are stopped, never ones mid-proc: a suspended
		// proc's yield would return and it would run on as if woken.
		for _, c := range e.idle {
			c.stop()
		}
		e.idle = nil
	}()
	for e.events.len() > 0 {
		ev := e.events.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.stats.Events++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		p := ev.p
		if p.c == nil { // first wake: board a carrier
			if n := len(e.idle); n > 0 {
				p.c, e.idle = e.idle[n-1], e.idle[:n-1]
			} else {
				p.c = e.newCarrier()
			}
			p.c.p = p
		}
		e.stats.Switches++
		p.c.next()
		if p.done {
			e.idle = append(e.idle, p.c)
			p.c = nil
			if p.recycle {
				e.free = append(e.free, p)
			}
		}
	}
	if e.live > 0 {
		return fmt.Errorf("sim: deadlock: %d live process(es) parked with no pending events", e.live)
	}
	return nil
}

// MustRun is Run, panicking on deadlock. Benchmarks and examples use it.
func (e *Env) MustRun() {
	if err := e.Run(); err != nil {
		panic(err)
	}
}
