package core

import (
	"time"

	"cofs/internal/lru"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// clientCache is the client-side metadata cache the paper sketches at
// the end of section IV-B: the punctual data-transfer penalties of COFS
// occur when GPFS serves strictly local accesses from its caches while
// COFS still pays metadata round trips — "the nature of the cases would
// make it possible to reduce the differences by adding the same
// aggressive caching and delegation techniques ... to the COFS
// framework".
//
// Entries are installed only under a server-issued lease
// (COFSParams.AttrLease > 0; 0 disables the cache, matching the paper's
// measured prototype). Shards remember which client holds a lease on
// which attribute or dentry and revoke it at the commit instant of any
// conflicting mutation (see lease.go), so a valid entry is never stale
// — at any MetadataShards or node count. The cache also holds dentries,
// positive and negative, so repeated Lookup of a hot name (or of a name
// that does not exist) costs no round trip at all, and directory
// listings, each riding its directory's attribute entry
// (installListing).
type clientCache struct {
	lease time.Duration // lease term; 0 disables the cache

	attrs *lru.Cache[vfs.Ino, attrCacheEntry]
	dents *lru.Cache[dentCacheKey, dentCacheEntry]
	lists listingCache

	Stats CacheStats
}

// CacheStats counts client-cache events (tooling/ablation surface).
type CacheStats struct {
	// Hits and Misses count attribute-cache probes.
	Hits   int64
	Misses int64
	// DentryHits counts positive dentry-cache hits.
	DentryHits int64
	// NegativeHits counts Lookups answered ENOENT from a cached
	// negative dentry.
	NegativeHits int64
	// Installs counts lease-granted entry installations.
	Installs int64
	// Revocations counts entries dropped by a shard's lease recall.
	Revocations int64
	// ListingHits counts listings served from the cache.
	ListingHits int64
}

type attrCacheEntry struct {
	attr  vfs.Attr
	upath string
	exp   time.Duration // lease expiry
}

type dentCacheKey struct {
	parent vfs.Ino
	name   string
}

// dentCacheEntry is a cached name resolution; child 0 marks a negative
// entry (the name is known not to exist).
type dentCacheEntry struct {
	child vfs.Ino
	exp   time.Duration
}

// newClientCache builds the cache for one client from the COFS knobs; a
// zero AttrLease yields a disabled cache.
func newClientCache(cfg params.COFSParams) *clientCache {
	capacity := cfg.AttrCacheEntries
	if capacity < 16 {
		capacity = 16
	}
	c := &clientCache{
		lease: cfg.AttrLease,
		attrs: lru.New[vfs.Ino, attrCacheEntry](capacity),
		dents: lru.New[dentCacheKey, dentCacheEntry](capacity),
		lists: newListingCache(capacity),
	}
	c.attrs.OnEvict = func(ino vfs.Ino, _ attrCacheEntry) { c.lists.remove(ino) }
	return c
}

// enabled reports whether the cache runs (AttrLease > 0).
func (c *clientCache) enabled() bool { return c.lease > 0 }

// get returns a still-leased cached attribute entry.
func (c *clientCache) get(p *sim.Proc, ino vfs.Ino) (attrCacheEntry, bool) {
	if !c.enabled() {
		return attrCacheEntry{}, false
	}
	e, ok := c.attrs.Get(ino)
	if !ok || p.Now() >= e.exp {
		if ok {
			c.removeAttr(ino)
		}
		c.Stats.Misses++
		return attrCacheEntry{}, false
	}
	c.Stats.Hits++
	return e, true
}

// lookupDentry resolves (parent, name) from the dentry cache. The
// second result reports a negative entry. Hit counting lives in
// FS.Lookup, which knows whether the resolution actually served the
// operation (a dentry hit whose attr entry has expired
// still pays the wire round trip and must not count).
func (c *clientCache) lookupDentry(p *sim.Proc, parent vfs.Ino, name string) (child vfs.Ino, negative, ok bool) {
	if !c.enabled() {
		return 0, false, false
	}
	e, found := c.dents.Get(dentCacheKey{parent: parent, name: name})
	if !found || p.Now() >= e.exp {
		if found {
			c.dents.Remove(dentCacheKey{parent: parent, name: name})
		}
		return 0, false, false
	}
	if e.child == 0 {
		return 0, true, true
	}
	return e.child, false, true
}

// installAttr installs a lease-granted attribute entry. It runs at the
// shard's grant instant (while the reply is being built), so a
// revocation committed after the grant always finds — and kills — the
// entry; there is no stale-install window.
func (c *clientCache) installAttr(p *sim.Proc, attr vfs.Attr, upath string, exp time.Duration) {
	if upath == "" {
		if old, ok := c.attrs.Peek(attr.Ino); ok {
			upath = old.upath
		}
	}
	c.Stats.Installs++
	c.attrs.Put(attr.Ino, attrCacheEntry{attr: attr, upath: upath, exp: exp})
}

// installDentry installs a lease-granted name resolution (child 0 for a
// negative entry).
func (c *clientCache) installDentry(parent vfs.Ino, name string, child vfs.Ino, exp time.Duration) {
	c.Stats.Installs++
	c.dents.Put(dentCacheKey{parent: parent, name: name}, dentCacheEntry{child: child, exp: exp})
}

// fitsListing reports whether a listing of n entries may be cached:
// never one longer than the whole budget.
func (c *clientCache) fitsListing(n int) bool { return n <= c.lists.budget }

// installListing installs a directory's listing together with its
// lease-granted attribute entry. Like installAttr it runs at the grant
// instant.
func (c *clientCache) installListing(dir vfs.Attr, ents []vfs.DirEntry, exp time.Duration) {
	c.Stats.Installs++
	c.attrs.Put(dir.Ino, attrCacheEntry{attr: dir, exp: exp})
	c.lists.put(dir.Ino, ents)
}

// listing returns dir's cached listing and the directory's attributes
// while its attribute entry is leased. The entries are the cache's own:
// callers copy them before handing them out.
func (c *clientCache) listing(p *sim.Proc, dir vfs.Ino) ([]vfs.DirEntry, vfs.Attr, bool) {
	ents, ok := c.lists.byDir.Get(dir)
	if !ok {
		return nil, vfs.Attr{}, false
	}
	e, ok := c.attrs.Get(dir)
	if !ok || p.Now() >= e.exp {
		c.removeAttr(dir)
		return nil, vfs.Attr{}, false
	}
	return ents, e.attr, true
}

// removeAttr forgets an attribute entry and the listing riding it.
func (c *clientCache) removeAttr(ino vfs.Ino) {
	c.attrs.Remove(ino)
	c.lists.remove(ino)
}

// drop forgets an attribute entry (unlink, truncate, local
// modification — the mutating client's own invalidation, which rides
// the operation itself rather than a lease recall).
func (c *clientCache) drop(ino vfs.Ino) {
	if c.enabled() {
		c.removeAttr(ino)
	}
}

// dropDentry forgets a cached name resolution.
func (c *clientCache) dropDentry(parent vfs.Ino, name string) {
	if c.enabled() {
		c.dents.Remove(dentCacheKey{parent: parent, name: name})
	}
}

// revoke drops the entry a shard's lease recall names.
func (c *clientCache) revoke(key leaseKey) {
	if key.name != "" {
		k := dentCacheKey{parent: key.parent, name: key.name}
		if c.dents.Remove(k) {
			c.Stats.Revocations++
		}
		return
	}
	if c.attrs.Contains(key.ino) {
		c.Stats.Revocations++
	}
	c.removeAttr(key.ino)
}

// purge forgets everything (failover: the client reconnected to a
// different service instance and must revalidate).
func (c *clientCache) purge() {
	c.attrs.Clear()
	c.dents.Clear()
	c.lists.clear()
}

// listingCache holds directory listings under a budget of
// names: installing a listing evicts the least recently used ones until
// the names fit, so a client never holds more listed names than its
// attribute capacity. Every listing lives exactly as long as its
// directory's attribute entry (clientCache.removeAttr and the attribute
// LRU's eviction hook remove it), so there are never more listings than
// attribute entries and byDir never evicts on its own.
type listingCache struct {
	byDir  *lru.Cache[vfs.Ino, []vfs.DirEntry]
	names  int // entries of the cached listings
	budget int
	// spares are the entry arrays of removed listings, kept while cached
	// and spare entries together fit the budget: installs copy into them,
	// so listings dying and being listed again allocate nothing.
	spares [][]vfs.DirEntry
	kept   int // capacity of the spares
}

func newListingCache(budget int) listingCache {
	return listingCache{byDir: lru.New[vfs.Ino, []vfs.DirEntry](budget), budget: budget}
}

// put caches a copy of ents as dir's listing.
func (lc *listingCache) put(dir vfs.Ino, ents []vfs.DirEntry) {
	lc.remove(dir)
	for lc.names+len(ents) > lc.budget {
		oldest, _, ok := lc.byDir.Oldest()
		if !ok {
			break
		}
		lc.remove(oldest)
	}
	var arr []vfs.DirEntry
	if n := len(lc.spares); n > 0 {
		arr, lc.spares = lc.spares[n-1], lc.spares[:n-1]
		lc.kept -= cap(arr)
	}
	if cap(arr) < len(ents) {
		arr = make([]vfs.DirEntry, len(ents)) // capacity exactly len: kept counts it
	}
	arr = arr[:len(ents)]
	copy(arr, ents)
	lc.byDir.Put(dir, arr)
	lc.names += len(ents)
}

func (lc *listingCache) remove(dir vfs.Ino) {
	ents, ok := lc.byDir.Peek(dir)
	if !ok {
		return
	}
	lc.byDir.Remove(dir)
	lc.names -= len(ents)
	if lc.names+lc.kept+cap(ents) <= lc.budget {
		clear(ents[:cap(ents)])
		lc.spares = append(lc.spares, ents[:0])
		lc.kept += cap(ents)
	}
}

func (lc *listingCache) clear() {
	lc.byDir.Clear()
	clear(lc.spares)
	lc.spares, lc.names, lc.kept = lc.spares[:0], 0, 0
}
