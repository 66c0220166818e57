// Package lru implements a small generic LRU cache with hit/miss
// statistics, used for the simulated client and server buffer caches.
package lru

// Cache is a fixed-capacity least-recently-used cache. Not safe for
// concurrent use; simulation code is single-threaded.
//
// Entries live in a slab of nodes linked by index, not in a
// container/list of heap-allocated elements: once the slab has grown to
// capacity, Put/Get/Remove churn allocates nothing, which matters for
// the dcache sitting on every simulated FUSE walk.
type Cache[K comparable, V any] struct {
	capacity int
	nodes    []node[K, V]
	items    map[K]int32
	head     int32 // most recently used, -1 when empty
	tail     int32 // least recently used, -1 when empty
	free     []int32

	Hits      int64
	Misses    int64
	Evictions int64

	// OnEvict, if set, is called with each evicted key/value (e.g. to
	// write back dirty blocks).
	OnEvict func(K, V)
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// New returns a cache holding at most capacity entries (capacity >= 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		panic("lru: capacity must be >= 1")
	}
	return &Cache[K, V]{
		capacity: capacity,
		items:    make(map[K]int32),
		head:     -1,
		tail:     -1,
	}
}

func (c *Cache[K, V]) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *Cache[K, V]) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = -1, c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *Cache[K, V]) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

// Get returns the value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if i, ok := c.items[key]; ok {
		c.Hits++
		c.moveToFront(i)
		return c.nodes[i].val, true
	}
	c.Misses++
	var zero V
	return zero, false
}

// Peek returns the value without updating recency or statistics.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	if i, ok := c.items[key]; ok {
		return c.nodes[i].val, true
	}
	var zero V
	return zero, false
}

// Oldest returns the least recently used entry, without updating
// recency or statistics; false when the cache is empty.
func (c *Cache[K, V]) Oldest() (K, V, bool) {
	if c.tail < 0 {
		var k K
		var v V
		return k, v, false
	}
	n := &c.nodes[c.tail]
	return n.key, n.val, true
}

// Contains reports whether key is cached, without side effects.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or updates key, marking it most recently used. It evicts the
// least recently used entry if the cache is over capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	if i, ok := c.items[key]; ok {
		c.moveToFront(i)
		c.nodes[i].val = val
		return
	}
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.nodes = append(c.nodes, node[K, V]{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i].key = key
	c.nodes[i].val = val
	c.items[key] = i
	c.pushFront(i)
	if len(c.items) > c.capacity {
		c.evictOldest()
	}
}

// Remove deletes key if present, without calling OnEvict.
func (c *Cache[K, V]) Remove(key K) bool {
	i, ok := c.items[key]
	if !ok {
		return false
	}
	c.unlink(i)
	delete(c.items, key)
	c.release(i)
	return true
}

// RemoveFunc deletes every entry whose key satisfies pred, without
// calling OnEvict, and reports how many were removed. It walks the
// recency list in place — no key-slice snapshot — so bulk invalidation
// (a revoked token covering many cached blocks) costs no allocation
// regardless of cache size.
func (c *Cache[K, V]) RemoveFunc(pred func(K) bool) int {
	removed := 0
	for i := c.head; i >= 0; {
		next := c.nodes[i].next
		if pred(c.nodes[i].key) {
			c.unlink(i)
			delete(c.items, c.nodes[i].key)
			c.release(i)
			removed++
		}
		i = next
	}
	return removed
}

// release returns slot i to the free list, dropping key/value references.
func (c *Cache[K, V]) release(i int32) {
	c.nodes[i] = node[K, V]{}
	c.free = append(c.free, i)
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Capacity returns the configured capacity.
func (c *Cache[K, V]) Capacity() int { return c.capacity }

// Clear drops every entry without calling OnEvict.
func (c *Cache[K, V]) Clear() {
	clear(c.items)
	c.nodes = c.nodes[:0]
	c.free = c.free[:0]
	c.head, c.tail = -1, -1
}

// Keys returns the cached keys from most to least recently used.
func (c *Cache[K, V]) Keys() []K {
	keys := make([]K, 0, len(c.items))
	for i := c.head; i >= 0; i = c.nodes[i].next {
		keys = append(keys, c.nodes[i].key)
	}
	return keys
}

func (c *Cache[K, V]) evictOldest() {
	i := c.tail
	if i < 0 {
		return
	}
	key, val := c.nodes[i].key, c.nodes[i].val
	c.unlink(i)
	delete(c.items, key)
	c.release(i)
	c.Evictions++
	if c.OnEvict != nil {
		c.OnEvict(key, val)
	}
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (c *Cache[K, V]) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
