// Package lock implements a GPFS-style distributed token (lock) manager.
//
// Tokens grant a node the right to cache and operate on a named resource
// (an inode block, a directory block, a directory's metanode role, a
// byte range). Once granted, a token stays with the node until another
// node's conflicting request forces a revocation — this caching is what
// makes repeated single-node access fast, and the revocation traffic is
// what makes shared-directory workloads slow (paper, section II).
//
// The manager lives on a server host; clients reach it via simulated RPC.
// Revocations are nested RPCs from the manager to the current holders;
// the holder's Revoke callback charges whatever writeback the dirty state
// requires before the token moves.
package lock

import (
	"fmt"
	"slices"
	"time"

	"cofs/internal/lru"
	"cofs/internal/netsim"
	"cofs/internal/sim"
)

// Mode is a token mode.
type Mode int

// Token modes, in increasing strength.
const (
	ModeNone Mode = iota
	ModeShared
	ModeExclusive
)

// String returns "none", "shared" or "exclusive".
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeShared:
		return "shared"
	case ModeExclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Kind namespaces token resources so different subsystems cannot collide.
type Kind uint32

// Resource names one lockable object.
type Resource struct {
	Kind Kind
	ID   uint64
}

// Client is the node-side party holding tokens. Implementations must
// update their local token cache and write back dirty state when revoked.
type Client interface {
	// Host is the network identity used for revocation RPCs.
	Host() *netsim.Host
	// Revoke is called (on the manager's initiative, in the acquiring
	// process's context) when the client must downgrade its token on r
	// to the given mode. The implementation charges flush time.
	Revoke(p *sim.Proc, r Resource, to Mode)
	// Granted is called synchronously inside the manager when a token
	// is granted, so the client's cache can never go stale: a revoke
	// arriving while the grant response is still in flight would
	// otherwise be overwritten by a late cache update.
	Granted(r Resource, mode Mode)
}

type holder struct {
	c    Client
	mode Mode
}

// inlineHolders is how many holders a token keeps without a heap array:
// a file's tokens rarely have more than a writer and a reader.
const inlineHolders = 2

// token is one resource's state. Holders are kept in grant order (a
// slice, not a map) so revocation order — and therefore the whole
// simulation — is deterministic. Tokens live in the Manager's slab.
type token struct {
	r       Resource
	mu      sim.Mutex // serializes conflicting acquisitions FIFO
	holders []holder  // aliases inline until it outgrows it
	inline  [inlineHolders]holder
}

// String names the token in its mutex's panics.
func (t *token) String() string { return fmt.Sprintf("token:%d/%d", t.r.Kind, t.r.ID) }

func (t *token) find(c Client) int {
	for i := range t.holders {
		if t.holders[i].c == c {
			return i
		}
	}
	return -1
}

// Stats aggregates manager-side counters.
type Stats struct {
	Acquires     int64 // every grant, Acquire and GrantInline alike
	InlineGrants int64 // the GrantInline share: no round trip paid
	LocalGrants  int64 // grants that required no revocation
	Revocations  int64
	Transfers    int64 // acquisitions that moved the token between nodes
	WaitTotal    time.Duration
}

// Manager is the centralized token server.
type Manager struct {
	net    *netsim.Net
	host   *netsim.Host
	cpuPer time.Duration
	tokens map[Resource]*token
	// slab allocates token state tokenSlabChunk tokens at a time, and
	// free holds the tokens whose last holder left (Bonwick's object
	// cache): a resource touched once, like a file's byte range, costs
	// no allocation of its own.
	slab []token
	free []*token

	Stats Stats
}

// tokenSlabChunk is the number of tokens one slab allocation holds.
const tokenSlabChunk = 256

// NewManager creates a token manager on host; cpuPerOp is the server CPU
// charge per token request.
func NewManager(net *netsim.Net, host *netsim.Host, cpuPerOp time.Duration) *Manager {
	return &Manager{
		net:    net,
		host:   host,
		cpuPer: cpuPerOp,
		tokens: make(map[Resource]*token),
	}
}

// Host returns the host the manager runs on.
func (m *Manager) Host() *netsim.Host { return m.host }

// token returns r's state, taking a fresh token from the free list or the
// slab on r's first use.
func (m *Manager) token(r Resource) *token {
	if t, ok := m.tokens[r]; ok {
		return t
	}
	var t *token
	if n := len(m.free); n > 0 {
		t = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		if len(m.slab) == cap(m.slab) {
			m.slab = make([]token, 0, tokenSlabChunk)
		}
		m.slab = m.slab[:len(m.slab)+1]
		t = &m.slab[len(m.slab)-1]
	}
	t.r = r
	t.mu.SetName(t)
	t.holders = t.inline[:0]
	m.tokens[r] = t
	return t
}

// remove drops c from t's holders. A token left with no holder and no
// acquisition in progress holds nothing a fresh one would not, so it
// goes back to the free list.
func (m *Manager) remove(t *token, c Client) {
	if i := t.find(c); i >= 0 {
		t.holders = slices.Delete(t.holders, i, i+1)
	}
	if len(t.holders) == 0 && !t.mu.Locked() {
		delete(m.tokens, t.r)
		*t = token{}
		m.free = append(m.free, t)
	}
}

func compatible(held, want Mode) bool {
	return held == ModeShared && want == ModeShared
}

// Acquire obtains the token r in the given mode for client c, performing
// the client->manager RPC, any revocations, and the grant. It is called
// from the client's process. The caller is responsible for consulting its
// local token cache first; Acquire always pays the RPC.
func (m *Manager) Acquire(p *sim.Proc, c Client, r Resource, mode Mode) {
	if mode != ModeShared && mode != ModeExclusive {
		panic("lock: acquire with invalid mode")
	}
	start := p.Now()
	// The dispatch charges a worker thread briefly; the grant itself
	// (which can queue behind other requests and block on revocations)
	// runs without holding a worker slot — queued token requests must
	// not starve the server of threads, or the revocation writebacks
	// they are waiting for deadlock at scale.
	m.net.Transfer(p, c.Host(), m.host, 64)
	m.host.CPU.Use(p, m.cpuPer)
	m.grant(p, c, r, mode)
	m.net.Transfer(p, m.host, c.Host(), 64)
	m.Stats.WaitTotal += p.Now() - start
}

// grant runs on the manager: waits for the token's turn, revokes
// conflicting holders, and records the new holder.
func (m *Manager) grant(p *sim.Proc, c Client, r Resource, mode Mode) {
	m.Stats.Acquires++
	t := m.token(r)
	// FIFO per-token critical section: concurrent conflicting acquires
	// queue here, which is exactly the serialization the paper observes
	// on shared-directory creates.
	t.mu.Lock(p)
	defer t.mu.Unlock(p)

	if i := t.find(c); i >= 0 && t.holders[i].mode >= mode {
		// Already held strongly enough (raced with a previous grant).
		m.Stats.LocalGrants++
		return
	}

	// Snapshot the holder list: each revoke yields to the network, and
	// unrelated Release calls may mutate t.holders meanwhile.
	var buf [2 * inlineHolders]holder
	snapshot := append(buf[:0], t.holders...)
	revoked := false
	for _, h := range snapshot {
		if h.c == c || compatible(h.mode, mode) {
			continue
		}
		// Downgrade target: exclusive requester needs others at none;
		// shared requester tolerates shared.
		to := ModeNone
		if mode == ModeShared && h.mode == ModeExclusive {
			to = ModeShared
		}
		m.revoke(p, h.c, r, to)
		if to == ModeNone {
			m.remove(t, h.c)
		} else if i := t.find(h.c); i >= 0 {
			t.holders[i].mode = to
		}
		revoked = true
	}
	if revoked {
		m.Stats.Transfers++
	} else {
		m.Stats.LocalGrants++
	}
	if i := t.find(c); i >= 0 {
		t.holders[i].mode = mode
	} else {
		t.holders = append(t.holders, holder{c: c, mode: mode})
	}
	c.Granted(r, mode)
}

// revoke performs the manager->holder revocation RPC.
func (m *Manager) revoke(p *sim.Proc, holder Client, r Resource, to Mode) {
	m.Stats.Revocations++
	netsim.Call(p, m.net, m.host, holder.Host(), 64, 64, func(p *sim.Proc) struct{} {
		holder.Revoke(p, r, to)
		return struct{}{}
	})
}

// GrantInline grants r to c without the client->manager RPC — used when
// the grant piggybacks on an exchange already paid for (e.g. file
// creation implicitly granting the creator the new inode's block token).
// Conflicting holders are still revoked with full round trips.
func (m *Manager) GrantInline(p *sim.Proc, c Client, r Resource, mode Mode) {
	m.Stats.InlineGrants++
	m.grant(p, c, r, mode)
}

// Release voluntarily gives up c's token on r (e.g. when the object is
// deleted). It performs the client->manager RPC.
func (m *Manager) Release(p *sim.Proc, c Client, r Resource) {
	netsim.Call(p, m.net, c.Host(), m.host, 64, 64, func(p *sim.Proc) struct{} {
		p.Sleep(m.cpuPer)
		if t, ok := m.tokens[r]; ok {
			m.remove(t, c)
		}
		return struct{}{}
	})
}

// ReleaseLocal removes c's holdership without network traffic; used when
// the manager and client decide the token is gone as part of another
// exchange (e.g. object deletion piggybacked on an RPC already paid for).
func (m *Manager) ReleaseLocal(c Client, r Resource) {
	if t, ok := m.tokens[r]; ok {
		m.remove(t, c)
	}
}

// HolderMode reports the manager's view of c's mode on r.
func (m *Manager) HolderMode(c Client, r Resource) Mode {
	if t, ok := m.tokens[r]; ok {
		if i := t.find(c); i >= 0 {
			return t.holders[i].mode
		}
	}
	return ModeNone
}

// Holders returns the number of holders of r.
func (m *Manager) Holders(r Resource) int {
	if t, ok := m.tokens[r]; ok {
		return len(t.holders)
	}
	return 0
}

// CheckInvariants verifies that no token has two holders when one is
// exclusive. Tests call this after workloads.
func (m *Manager) CheckInvariants() error {
	for r, t := range m.tokens {
		excl := 0
		for _, h := range t.holders {
			if h.mode == ModeExclusive {
				excl++
			}
		}
		if excl > 1 || (excl == 1 && len(t.holders) > 1) {
			return fmt.Errorf("lock: token %v has %d holders with %d exclusive", r, len(t.holders), excl)
		}
	}
	return nil
}

// Cache is the client-side token cache: it remembers which tokens this
// client already holds so repeated access is free (the delegation
// effect). The cache is LRU-bounded like GPFS's token table: an evicted
// entry is simply forgotten — the manager still records the holdership,
// so re-acquiring is a cheap confirmation round trip and a revoke of a
// forgotten token is honored normally.
type Cache struct {
	held *lru.Cache[Resource, Mode]
}

// DefaultCacheEntries bounds a token cache when no capacity is given.
const DefaultCacheEntries = 1 << 20

// NewCache returns an effectively unbounded token cache.
func NewCache() *Cache { return NewCacheSized(DefaultCacheEntries) }

// NewCacheSized returns a token cache holding at most n entries.
func NewCacheSized(n int) *Cache {
	return &Cache{held: lru.New[Resource, Mode](n)}
}

// Has reports whether the cache holds r at least as strongly as mode.
func (tc *Cache) Has(r Resource, mode Mode) bool {
	m, ok := tc.held.Get(r)
	return ok && m >= mode
}

// Mode returns the cached mode for r.
func (tc *Cache) Mode(r Resource) Mode {
	m, _ := tc.held.Peek(r)
	return m
}

// Set records a granted mode.
func (tc *Cache) Set(r Resource, mode Mode) { tc.held.Put(r, mode) }

// Clear forgets every cached token.
func (tc *Cache) Clear() {
	for _, r := range tc.held.Keys() {
		tc.held.Remove(r)
	}
}

// Downgrade lowers the cached mode (ModeNone removes the entry).
func (tc *Cache) Downgrade(r Resource, to Mode) {
	if to == ModeNone {
		tc.held.Remove(r)
		return
	}
	if m, ok := tc.held.Peek(r); ok && m > to {
		tc.held.Put(r, to)
	}
}

// Len returns the number of cached tokens.
func (tc *Cache) Len() int { return tc.held.Len() }
