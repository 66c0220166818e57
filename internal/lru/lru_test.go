package lru

import (
	"container/list"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get a = %v %v", v, ok)
	}
	c.Put("c", 3) // evicts b (a was just used)
	if c.Contains("b") {
		t.Fatal("b should be evicted")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Fatal("a and c should remain")
	}
	if c.Evictions != 1 {
		t.Fatalf("evictions=%d", c.Evictions)
	}
}

func TestUpdateExisting(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 10)
	if c.Len() != 1 {
		t.Fatalf("len=%d, want 1", c.Len())
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("v=%d, want 10", v)
	}
}

func TestOnEvict(t *testing.T) {
	var evicted []int
	c := New[int, int](1)
	c.OnEvict = func(k, v int) { evicted = append(evicted, k) }
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted=%v", evicted)
	}
}

func TestRemoveAndClear(t *testing.T) {
	c := New[int, int](4)
	c.Put(1, 1)
	c.Put(2, 2)
	if !c.Remove(1) {
		t.Fatal("Remove existing returned false")
	}
	if c.Remove(1) {
		t.Fatal("Remove missing returned true")
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("len after clear=%d", c.Len())
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Peek(1)   // must not promote 1
	c.Put(3, 3) // evicts 1
	if c.Contains(1) {
		t.Fatal("Peek promoted entry")
	}
}

// TestOldest: Oldest names the entry the next eviction would take, and
// asking does not promote it.
func TestOldest(t *testing.T) {
	c := New[int, int](3)
	if _, _, ok := c.Oldest(); ok {
		t.Fatal("an empty cache has an oldest entry")
	}
	c.Put(1, 10)
	c.Put(2, 20)
	c.Get(1)
	if k, v, ok := c.Oldest(); !ok || k != 2 || v != 20 {
		t.Fatalf("Oldest = %d, %d, %v; want 2, 20", k, v, ok)
	}
	c.Put(3, 30)
	c.Put(4, 40) // evicts 2, the oldest
	if c.Contains(2) {
		t.Fatal("Oldest promoted its entry")
	}
}

func TestHitRateAndKeys(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate=%v", c.HitRate())
	}
	c.Put(2, 2)
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != 2 {
		t.Fatalf("keys=%v, want [2 1]", keys)
	}
}

func TestScanThrash(t *testing.T) {
	// Repeated sequential scans of a working set larger than the cache
	// must miss on (almost) every access — the mechanism behind the
	// paper's Fig. 1 cliff.
	c := New[int, int](100)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 200; i++ {
			if _, ok := c.Get(i); !ok {
				c.Put(i, i)
			}
		}
	}
	if c.Hits != 0 {
		t.Fatalf("scan thrash produced %d hits, want 0", c.Hits)
	}
}

func TestNeverExceedsCapacity(t *testing.T) {
	f := func(keys []uint8) bool {
		c := New[uint8, int](8)
		for i, k := range keys {
			c.Put(k, i)
			if c.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGetReflectsLastPut(t *testing.T) {
	f := func(ops []struct {
		K uint8
		V int
	}) bool {
		c := New[uint8, int](256) // big enough: nothing evicts
		want := map[uint8]int{}
		for _, op := range ops {
			c.Put(op.K, op.V)
			want[op.K] = op.V
		}
		for k, v := range want {
			got, ok := c.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// modelCache is the reference the slot-array cache is checked against:
// a container/list in recency order (front most recent) and a map.
type modelCache struct {
	capacity                int
	order                   *list.List // of [2]int{key, val}
	at                      map[int]*list.Element
	hits, misses, evictions int64
	evicted                 [][2]int
}

func (m *modelCache) get(k int, promote bool) (int, bool) {
	e, ok := m.at[k]
	if !ok {
		return 0, false
	}
	if promote {
		m.order.MoveToFront(e)
	}
	return e.Value.([2]int)[1], true
}

func (m *modelCache) put(k, v int) {
	if e, ok := m.at[k]; ok {
		e.Value = [2]int{k, v}
		m.order.MoveToFront(e)
		return
	}
	m.at[k] = m.order.PushFront([2]int{k, v})
	if m.order.Len() > m.capacity {
		old := m.order.Remove(m.order.Back()).([2]int)
		delete(m.at, old[0])
		m.evictions++
		m.evicted = append(m.evicted, old)
	}
}

func (m *modelCache) remove(k int) bool {
	e, ok := m.at[k]
	if ok {
		m.order.Remove(e)
		delete(m.at, k)
	}
	return ok
}

func (m *modelCache) keys() []int {
	var keys []int
	for e := m.order.Front(); e != nil; e = e.Next() {
		keys = append(keys, e.Value.([2]int)[0])
	}
	return keys
}

// TestMatchesModel runs seeded random operation sequences against the
// cache and the reference and compares every result, the length, the
// recency order, the eviction sequence and the counters after each
// step. Slot arrays of 8 to 32 slots at up to ¾ load put most removals
// in the middle of a probe run, which the backward shift must survive.
func TestMatchesModel(t *testing.T) {
	for capacity := 1; capacity <= 16; capacity++ {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(capacity)))
			c := New[int, int](capacity)
			m := &modelCache{capacity: capacity, order: list.New(), at: map[int]*list.Element{}}
			var evicted [][2]int
			c.OnEvict = func(k, v int) { evicted = append(evicted, [2]int{k, v}) }
			keySpace := 2*capacity + 4
			for step := 0; step < 400; step++ {
				k := rng.IntN(keySpace)
				var what string
				switch op := rng.IntN(100); {
				case op < 35:
					what = fmt.Sprintf("Put(%d)", k)
					c.Put(k, step)
					m.put(k, step)
				case op < 60:
					what = fmt.Sprintf("Get(%d)", k)
					v, ok := c.Get(k)
					mv, mok := m.get(k, true)
					if mok {
						m.hits++
					} else {
						m.misses++
					}
					if v != mv || ok != mok {
						t.Fatalf("cap %d seed %d step %d: %s = %d, %v; want %d, %v", capacity, seed, step, what, v, ok, mv, mok)
					}
				case op < 68:
					what = fmt.Sprintf("Peek(%d)", k)
					v, ok := c.Peek(k)
					mv, mok := m.get(k, false)
					if v != mv || ok != mok {
						t.Fatalf("cap %d seed %d step %d: %s = %d, %v; want %d, %v", capacity, seed, step, what, v, ok, mv, mok)
					}
				case op < 76:
					what = fmt.Sprintf("Contains(%d)", k)
					_, mok := m.get(k, false)
					if ok := c.Contains(k); ok != mok {
						t.Fatalf("cap %d seed %d step %d: %s = %v", capacity, seed, step, what, ok)
					}
				case op < 90:
					what = fmt.Sprintf("Remove(%d)", k)
					if ok, mok := c.Remove(k), m.remove(k); ok != mok {
						t.Fatalf("cap %d seed %d step %d: %s = %v", capacity, seed, step, what, ok)
					}
				case op < 95:
					mod := 2 + rng.IntN(3)
					what = fmt.Sprintf("RemoveFunc(key %% %d == %d)", mod, k%mod)
					pred := func(key int) bool { return key%mod == k%mod }
					want := 0
					for _, key := range m.keys() {
						if pred(key) {
							m.remove(key)
							want++
						}
					}
					if n := c.RemoveFunc(pred); n != want {
						t.Fatalf("cap %d seed %d step %d: %s = %d, want %d", capacity, seed, step, what, n, want)
					}
				case op < 97:
					what = "Clear"
					c.Clear()
					m.order.Init()
					clear(m.at)
				default:
					what = "Oldest"
					k, v, ok := c.Oldest()
					var want [2]int
					if back := m.order.Back(); back != nil {
						want = back.Value.([2]int)
					}
					if ok != (m.order.Len() > 0) || [2]int{k, v} != want {
						t.Fatalf("cap %d seed %d step %d: Oldest = %d, %d, %v; want %v", capacity, seed, step, k, v, ok, want)
					}
				}
				if c.Len() != m.order.Len() || !slices.Equal(c.Keys(), m.keys()) {
					t.Fatalf("cap %d seed %d step %d: after %s keys %v (len %d), want %v", capacity, seed, step, what, c.Keys(), c.Len(), m.keys())
				}
				if !slices.Equal(evicted, m.evicted) {
					t.Fatalf("cap %d seed %d step %d: after %s evicted %v, want %v", capacity, seed, step, what, evicted, m.evicted)
				}
				if c.Hits != m.hits || c.Misses != m.misses || c.Evictions != m.evictions {
					t.Fatalf("cap %d seed %d step %d: after %s counters %d/%d/%d, want %d/%d/%d", capacity, seed, step, what,
						c.Hits, c.Misses, c.Evictions, m.hits, m.misses, m.evictions)
				}
			}
		}
	}
}

func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates")
			}
		}
	}
}

// dentKey and dentVal have the shape of the mount's dentry cache entries
// (vfs.dcacheKey and vfs.dcacheEntry).
type dentKey struct {
	dir  uint64
	name string
}

type dentVal struct {
	ino uint64
	at  int64
}

func dentKeys(n int) []dentKey {
	keys := make([]dentKey, n)
	for i := range keys {
		keys[i] = dentKey{dir: uint64(i % 64), name: "f" + strconv.Itoa(i)}
	}
	return keys
}

// TestLRUChurnAllocsNothing: a cache at capacity under Put/Get/Remove
// churn — every Put of a new key evicts — allocates nothing.
func TestLRUChurnAllocsNothing(t *testing.T) {
	skipUnderRace(t)
	const capacity = 1024
	keys := dentKeys(4 * capacity)
	c := New[dentKey, dentVal](capacity)
	next := 0
	churn := func() {
		k := keys[next%len(keys)]
		next++
		c.Put(k, dentVal{ino: uint64(next)})
		c.Get(keys[(next+len(keys)/2)%len(keys)])
		c.Get(k)
		c.Remove(keys[(next+7)%len(keys)])
		c.Put(keys[(next+7)%len(keys)], dentVal{})
	}
	for range 2 * len(keys) {
		churn()
	}
	if c.Len() != capacity {
		t.Fatalf("len %d, want the cache full at %d", c.Len(), capacity)
	}
	if got := testing.AllocsPerRun(1000, churn); got != 0 {
		t.Fatalf("churn at capacity allocates %.2f times per step, want 0", got)
	}
}

// TestDcacheBytesPerEntry pins the live heap of a full cache shaped like
// the mount's dentry cache (16384 entries), key strings excluded: the
// slab node (48 bytes) plus a slot array of two to four 8-byte slots per
// entry. Indexing the slab with a Go map read about 123 bytes an entry.
func TestDcacheBytesPerEntry(t *testing.T) {
	skipUnderRace(t)
	const capacity = 16384
	keys := dentKeys(capacity + capacity/4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New[dentKey, dentVal](capacity)
	for i, k := range keys {
		c.Put(k, dentVal{ino: uint64(i)})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.Len() != capacity {
		t.Fatalf("len %d, want %d", c.Len(), capacity)
	}
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / capacity
	t.Logf("%.1f live bytes per entry", perEntry)
	if perEntry > 90 {
		t.Fatalf("a full dentry-shaped cache holds %.1f live bytes per entry, want at most 90", perEntry)
	}
	runtime.KeepAlive(keys)
}
