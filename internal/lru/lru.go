// Package lru implements a small generic LRU cache with hit/miss
// statistics. Every cache of the model is one: the kernel dentry cache
// in front of each mount, the client's attribute, dentry, listing and
// advised caches, the pfs client and server caches, and the token cache.
//
// Entries live in a slab of nodes linked by index into a recency list.
// An open-addressing slot array indexes the slab: each slot holds a
// 32-bit hash tag and a node index, and a tag match is confirmed
// against the key in the node, so every key is stored once. Nothing
// observable depends on the slot layout or the hash seed: Keys, Oldest,
// RemoveFunc and eviction walk the recency list.
package lru

import "hash/maphash"

// Cache is a fixed-capacity least-recently-used cache. Not safe for
// concurrent use; simulation code is single-threaded.
//
// Once the slab and the slot array have grown to capacity, Put/Get/Remove
// churn allocates nothing, which matters for the dcache sitting on every
// simulated FUSE walk.
type Cache[K comparable, V any] struct {
	capacity int
	nodes    []node[K, V]
	// slots is the index: a power-of-two array probed linearly from a
	// key's home slot (tag & mask). A slot is tag<<32 | node index+1,
	// or 0 when empty. It doubles at ¾ load.
	slots []uint64
	seed  maphash.Seed
	head  int32 // most recently used, -1 when empty
	tail  int32 // least recently used, -1 when empty
	free  []int32

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
		seed:     maphash.MakeSeed(),
		head:     -1,
		tail:     -1,
	}
}

func (c *Cache[K, V]) tag(key K) uint32 { return uint32(maphash.Comparable(c.seed, key)) }

// lookup returns the slot holding key and its node, or the empty slot
// that ends key's probe run and -1. The slot array must not be empty.
func (c *Cache[K, V]) lookup(key K, tag uint32) (int, int32) {
	mask := len(c.slots) - 1
	for s := int(tag) & mask; ; s = (s + 1) & mask {
		e := c.slots[s]
		if e == 0 {
			return s, -1
		}
		if uint32(e>>32) == tag {
			if i := int32(e) - 1; c.nodes[i].key == key {
				return s, i
			}
		}
	}
}

// find returns key's node, or -1.
func (c *Cache[K, V]) find(key K) int32 {
	if len(c.slots) == 0 {
		return -1
	}
	_, i := c.lookup(key, c.tag(key))
	return i
}

// slotOf returns the slot that indexes node i.
func (c *Cache[K, V]) slotOf(i int32) int {
	mask := len(c.slots) - 1
	s := int(c.tag(c.nodes[i].key)) & mask
	for int32(c.slots[s]) != i+1 {
		s = (s + 1) & mask
	}
	return s
}

// unslot empties slot s and shifts the rest of its probe run back over
// the gap, so no tombstone is left (Knuth, TAOCP vol. 3, §6.4,
// Algorithm R): an entry moves into the gap unless its home slot lies
// cyclically after the gap and at or before the entry.
func (c *Cache[K, V]) unslot(s int) {
	mask := len(c.slots) - 1
	for j := (s + 1) & mask; c.slots[j] != 0; j = (j + 1) & mask {
		if home := int(c.slots[j]>>32) & mask; (j-home)&mask >= (j-s)&mask {
			c.slots[s] = c.slots[j]
			s = j
		}
	}
	c.slots[s] = 0
}

// grow doubles the slot array, re-placing every entry by its stored tag.
func (c *Cache[K, V]) grow() {
	old := c.slots
	c.slots = make([]uint64, max(8, 2*len(old)))
	mask := len(c.slots) - 1
	for _, e := range old {
		if e != 0 {
			s := int(e>>32) & mask
			for c.slots[s] != 0 {
				s = (s + 1) & mask
			}
			c.slots[s] = e
		}
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
	if i := c.find(key); i >= 0 {
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
	if i := c.find(key); i >= 0 {
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
func (c *Cache[K, V]) Contains(key K) bool { return c.find(key) >= 0 }

// Put inserts or updates key, marking it most recently used. It evicts the
// least recently used entry if the cache is over capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	if (c.Len()+1)*4 > len(c.slots)*3 {
		c.grow()
	}
	tag := c.tag(key)
	s, i := c.lookup(key, tag)
	if i >= 0 {
		c.moveToFront(i)
		c.nodes[i].val = val
		return
	}
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.nodes = append(c.nodes, node[K, V]{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i].key = key
	c.nodes[i].val = val
	c.slots[s] = uint64(tag)<<32 | uint64(i+1)
	c.pushFront(i)
	if c.Len() > c.capacity {
		c.evictOldest()
	}
}

// Remove deletes key if present, without calling OnEvict.
func (c *Cache[K, V]) Remove(key K) bool {
	if len(c.slots) == 0 {
		return false
	}
	s, i := c.lookup(key, c.tag(key))
	if i < 0 {
		return false
	}
	c.unlink(i)
	c.unslot(s)
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
			c.unslot(c.slotOf(i))
			c.release(i)
			removed++
		}
		i = next
	}
	return removed
}

// release returns node i to the free list, dropping key/value references.
func (c *Cache[K, V]) release(i int32) {
	c.nodes[i] = node[K, V]{}
	c.free = append(c.free, i)
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.nodes) - len(c.free) }

// Capacity returns the configured capacity.
func (c *Cache[K, V]) Capacity() int { return c.capacity }

// Clear drops every entry without calling OnEvict.
func (c *Cache[K, V]) Clear() {
	clear(c.slots)
	c.nodes = c.nodes[:0]
	c.free = c.free[:0]
	c.head, c.tail = -1, -1
}

// Keys returns the cached keys from most to least recently used.
func (c *Cache[K, V]) Keys() []K {
	keys := make([]K, 0, c.Len())
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
	c.unslot(c.slotOf(i))
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
