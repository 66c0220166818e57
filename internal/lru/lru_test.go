package lru

import (
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
