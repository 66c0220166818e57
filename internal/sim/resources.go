package sim

import (
	"fmt"
	"time"
)

// Mutex is a FIFO mutual-exclusion lock for simulated processes. The zero
// value is an unlocked, unnamed mutex, so a Mutex can live by value inside
// the object it guards; NewMutex returns a named one.
type Mutex struct {
	owner *Proc
	queue fifo[*Proc]
	// name names the mutex in its panics, formatted only when one fires;
	// nil for an unnamed mutex.
	name fmt.Stringer
	// contention statistics
	Acquires  int64
	Contended int64
	WaitTotal time.Duration
}

// mutexName is a fixed mutex name.
type mutexName string

func (n mutexName) String() string { return string(n) }

// NewMutex returns an unlocked mutex named name. A mutex reaches its
// environment through the processes that lock it, so env is not kept.
func NewMutex(env *Env, name string) *Mutex {
	return &Mutex{name: mutexName(name)}
}

// SetName makes n name m in its panics. n is formatted only when a panic
// fires, so an object that embeds its mutex can name it by itself at no
// cost.
func (m *Mutex) SetName(n fmt.Stringer) { m.name = n }

func (m *Mutex) label() string {
	if m.name == nil {
		return "(unnamed)"
	}
	return m.name.String()
}

// Lock acquires the mutex, blocking p until it is available. Grants are
// strictly FIFO.
func (m *Mutex) Lock(p *Proc) {
	m.Acquires++
	if m.owner == nil && m.queue.len() == 0 {
		m.owner = p
		return
	}
	m.Contended++
	start := p.env.now
	m.queue.push(p)
	p.park()
	m.WaitTotal += p.env.now - start
	if m.owner != p {
		panic(fmt.Sprintf("sim: mutex %q woke %q without ownership", m.label(), p.name))
	}
}

// Unlock releases the mutex and hands it to the longest waiter, if any.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic(fmt.Sprintf("sim: mutex %q unlocked by non-owner %q", m.label(), p.name))
	}
	if m.queue.len() == 0 {
		m.owner = nil
		return
	}
	next := m.queue.pop()
	m.owner = next
	p.env.unpark(next)
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// QueueLen returns the number of waiting processes.
func (m *Mutex) QueueLen() int { return m.queue.len() }

// Resource is a counting resource with capacity slots (e.g. server worker
// threads, a disk with one head, a link with N lanes). Acquire blocks when
// all slots are busy; grants are FIFO.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	queue    fifo[*Proc]
	idle     fifo[*Proc] // WaitIdle's waiters

	Acquires  int64
	Contended int64
	WaitTotal time.Duration
	BusyTotal time.Duration
	lastBusy  time.Duration
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: env, name: name, capacity: capacity}
}

// Acquire takes one slot, blocking until available.
func (r *Resource) Acquire(p *Proc) {
	r.Acquires++
	if r.inUse < r.capacity && r.queue.len() == 0 {
		r.take()
		return
	}
	r.Contended++
	start := r.env.now
	r.queue.push(p)
	p.park()
	r.WaitTotal += r.env.now - start
	// Slot was transferred to us by Release.
}

func (r *Resource) take() {
	if r.inUse == 0 {
		r.lastBusy = r.env.now
	}
	r.inUse++
}

// Release frees one slot and wakes the longest waiter.
func (r *Resource) Release(p *Proc) {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if r.queue.len() > 0 {
		// Hand the slot directly to the next waiter; inUse unchanged.
		r.env.unpark(r.queue.pop())
		return
	}
	r.inUse--
	if r.inUse == 0 {
		r.BusyTotal += r.env.now - r.lastBusy
		for r.idle.len() > 0 {
			r.env.unpark(r.idle.pop())
		}
	}
}

// WaitIdle blocks p until no slot is in use: every holder has released
// and no waiter was handed a slot on the way. It returns at once on an
// idle resource and takes no slot itself.
func (r *Resource) WaitIdle(p *Proc) {
	if r.inUse == 0 {
		return
	}
	r.idle.push(p)
	p.park()
}

// Use acquires the resource, sleeps for hold, and releases it. It is the
// common "serve me for duration d" idiom.
func (r *Resource) Use(p *Proc, hold time.Duration) {
	r.Acquire(p)
	p.Sleep(hold)
	r.Release(p)
}

// InUse returns the number of busy slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiting processes.
func (r *Resource) QueueLen() int { return r.queue.len() }

// WaitGroup waits for a collection of processes to finish, mirroring
// sync.WaitGroup for simulated time.
type WaitGroup struct {
	env     *Env
	count   int
	waiters fifo[*Proc]
}

// NewWaitGroup returns a WaitGroup with zero count.
func NewWaitGroup(env *Env) *WaitGroup { return &WaitGroup{env: env} }

// Add increments the counter by n.
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		wg.wakeAll()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters.push(p)
	p.park()
}

func (wg *WaitGroup) wakeAll() {
	// unpark only schedules, so no waiter can re-enter Wait during the
	// drain; FIFO wake order is preserved.
	for wg.waiters.len() > 0 {
		wg.env.unpark(wg.waiters.pop())
	}
}

// Go spawns fn as a process tracked by the WaitGroup.
func (wg *WaitGroup) Go(name string, fn func(p *Proc)) {
	wg.Add(1)
	wg.env.Spawn(name, func(p *Proc) {
		defer wg.Done()
		fn(p)
	})
}

// Queue is an unbounded FIFO channel between simulated processes.
type Queue struct {
	env     *Env
	items   fifo[any]
	waiters fifo[*Proc]
}

// NewQueue returns an empty queue.
func NewQueue(env *Env) *Queue { return &Queue{env: env} }

// Put appends an item and wakes one waiting consumer.
func (q *Queue) Put(item any) {
	q.items.push(item)
	if q.waiters.len() > 0 {
		q.env.unpark(q.waiters.pop())
	}
}

// Get removes and returns the oldest item, blocking p while empty.
func (q *Queue) Get(p *Proc) any {
	for q.items.len() == 0 {
		q.waiters.push(p)
		p.park()
	}
	return q.items.pop()
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return q.items.len() }

// Cond is a condition variable: processes Wait until another process calls
// Signal or Broadcast.
type Cond struct {
	env     *Env
	waiters fifo[*Proc]
}

// NewCond returns a condition variable.
func NewCond(env *Env) *Cond { return &Cond{env: env} }

// Wait parks p until signaled. As with sync.Cond the caller must re-check
// its predicate afterwards.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p)
	p.park()
}

// Signal wakes the longest waiter, if any.
func (c *Cond) Signal() {
	if c.waiters.len() == 0 {
		return
	}
	c.env.unpark(c.waiters.pop())
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	// unpark only schedules, so no waiter can re-enter Wait during the
	// drain; FIFO wake order is preserved.
	for c.waiters.len() > 0 {
		c.env.unpark(c.waiters.pop())
	}
}
