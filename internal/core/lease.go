package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"cofs/internal/mdb"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file is the server half of the coherent client cache (section
// IV-B's "aggressive caching and delegation techniques"). Each metadata
// shard keeps a lease table for the rows it owns: which client session
// holds a still-valid lease on which attribute (by inode id) or dentry
// (by parent+name). Read replies grant leases — the grant rides the reply
// that was already being sent, so granting is free on the wire — and
// any conflicting mutation revokes them: the revocation is applied to
// the holders' caches at the mutation's commit instant (keeping the
// protocol linearizable in virtual time) and the recall message cost is
// charged to the mutating operation, GPFS-token style. On a sharded
// plane, mutations run under the lock-ordered transaction layer
// (txnlock.go): each per-shard commit — and therefore each recall —
// still fires at its own commit instant, inside the mutation's locked
// span, so a conflicting mutation cannot slide between a commit and its
// recall. The mutating client itself is exempt: its own invalidation
// rides its reply (the FS layer drops the affected entries when the
// call returns).

// leaseKey names one leasable item of a shard: an attribute row (name
// empty) or a dentry (parent+name). It is what mutations hand
// revokeLeases; the table itself keeps the two kinds apart.
type leaseKey struct {
	ino    vfs.Ino
	parent vfs.Ino
	name   string
}

func attrLease(ino vfs.Ino) leaseKey { return leaseKey{ino: ino} }

func dentLease(parent vfs.Ino, name string) leaseKey {
	return leaseKey{parent: parent, name: name}
}

// leaseTable tracks the lease holders of one shard's rows: attribute
// leases keyed by inode id, so the hot grant and revoke paths hash one
// integer, and dentry leases keyed by (parent, name). Each key's holders
// are a linked list threaded through one table-wide slab, so a grant
// allocates nothing once the slab and the free list of released slots
// cover the live holders.
type leaseTable struct {
	term  time.Duration
	attrs map[vfs.Ino]int32   // head of the inode's holder list in slab
	dents map[dentryKey]int32 // head of the dentry's holder list in slab
	slab  []leaseHolder
	free  int32 // head of the list of released slab slots; -1 if none
	// victims is revoke's result, reused by every call.
	victims []*Session
	// sweepAt is the table size that triggers the next lazy sweep of
	// fully-expired keys (stat-once workloads otherwise retain one
	// holder list per row ever leased).
	sweepAt int
}

// leaseHolder is one (key, session) lease: the session and its expiry,
// linked to the key's next holder (or, released, to the next free slot).
type leaseHolder struct {
	sess *Session
	exp  time.Duration
	next int32 // -1 ends the list
}

const leaseSweepFloor = 1 << 12

func newLeaseTable(term time.Duration) *leaseTable {
	if term <= 0 {
		return nil
	}
	return &leaseTable{
		term:    term,
		attrs:   make(map[vfs.Ino]int32),
		dents:   make(map[dentryKey]int32),
		free:    -1,
		sweepAt: leaseSweepFloor,
	}
}

// alloc stores h in a free slab slot (or a new one) and returns its index.
func (lt *leaseTable) alloc(h leaseHolder) int32 {
	if i := lt.free; i >= 0 {
		lt.free = lt.slab[i].next
		lt.slab[i] = h
		return i
	}
	lt.slab = append(lt.slab, h)
	return int32(len(lt.slab) - 1)
}

// release returns slot i to the free list, dropping its session.
func (lt *leaseTable) release(i int32) {
	lt.slab[i] = leaseHolder{next: lt.free}
	lt.free = i
}

// prune releases the expired holders of the list at head and returns
// the list's new head (-1 when none is left).
func (lt *leaseTable) prune(now time.Duration, head int32) int32 {
	for link := &head; *link >= 0; {
		if h := &lt.slab[*link]; now >= h.exp {
			i := *link
			*link = h.next
			lt.release(i)
		} else {
			link = &h.next
		}
	}
	return head
}

func (lt *leaseTable) enabled() bool { return lt != nil }

// grant records sess as a holder of key until now+term and returns the
// expiry. Both sides share the simulation clock, so the client-side
// validity check and the server-side revocation window agree exactly.
// Revisiting a key prunes holders whose term has lapsed, and table
// growth triggers an amortized sweep of fully-expired keys, so
// read-mostly workloads do not accumulate dead (row, session) pairs
// forever.
func (lt *leaseTable) grant(now time.Duration, key leaseKey, sess *Session) time.Duration {
	if key.name == "" {
		return grantIn(lt, lt.attrs, now, key.ino, sess)
	}
	return grantIn(lt, lt.dents, now, dentryKey{Parent: key.parent, Name: key.name}, sess)
}

func grantIn[K comparable](lt *leaseTable, holders map[K]int32, now time.Duration, key K, sess *Session) time.Duration {
	old, ok := holders[key]
	if !ok {
		old = -1
	}
	head := lt.prune(now, old)
	exp := now + lt.term
	i := head
	for i >= 0 && lt.slab[i].sess != sess {
		i = lt.slab[i].next
	}
	if i >= 0 {
		lt.slab[i].exp = exp
	} else {
		head = lt.alloc(leaseHolder{sess: sess, exp: exp, next: head})
	}
	if !ok || head != old {
		holders[key] = head
	}
	if len(lt.attrs)+len(lt.dents) >= lt.sweepAt {
		lt.sweep(now)
	}
	return exp
}

// holdsAttr reports whether sess holds a live lease on ino's attributes.
func (lt *leaseTable) holdsAttr(now time.Duration, ino vfs.Ino, sess *Session) bool {
	i, ok := lt.attrs[ino]
	for ok && i >= 0 {
		if h := &lt.slab[i]; h.sess == sess {
			return now < h.exp
		}
		i = lt.slab[i].next
	}
	return false
}

// sweep drops expired holders and the keys they leave empty, then sets
// the next trigger to double the live size (amortized O(1) per grant).
func (lt *leaseTable) sweep(now time.Duration) {
	sweepIn(lt, lt.attrs, now)
	sweepIn(lt, lt.dents, now)
	lt.sweepAt = max(2*(len(lt.attrs)+len(lt.dents)), leaseSweepFloor)
}

func sweepIn[K comparable](lt *leaseTable, holders map[K]int32, now time.Duration) {
	for key, head := range holders {
		if head = lt.prune(now, head); head < 0 {
			delete(holders, key)
		} else {
			holders[key] = head
		}
	}
}

// revoke removes every holder of key and returns the sessions (other
// than except) whose lease had not yet expired — the ones that must be
// recalled — ordered by client node for determinism. The result lives
// in the table's own buffer: it is valid until the next revoke.
func (lt *leaseTable) revoke(now time.Duration, key leaseKey, except *Session) []*Session {
	var i int32
	var ok bool
	if key.name == "" {
		i, ok = take(lt.attrs, key.ino)
	} else {
		i, ok = take(lt.dents, dentryKey{Parent: key.parent, Name: key.name})
	}
	if !ok {
		return nil
	}
	victims := lt.victims[:0]
	for i >= 0 {
		h := lt.slab[i]
		lt.release(i)
		i = h.next
		// Self-invalidation rides the reply; expired needs nothing.
		if h.sess != except && now < h.exp {
			victims = append(victims, h.sess)
		}
	}
	slices.SortFunc(victims, func(a, b *Session) int { return cmp.Compare(a.node, b.node) })
	lt.victims = victims
	return victims
}

// take removes key from holders and returns the head of its list.
func take[K comparable](holders map[K]int32, key K) (int32, bool) {
	head, ok := holders[key]
	if ok {
		delete(holders, key)
	}
	return head, ok
}

// CheckCacheCoherence verifies, at a drained instant, the invariant
// the lease protocol must preserve: every still-leased entry in every
// client's cache equals the authoritative table row (attributes),
// correctly mirrors dentry existence (positive and negative entries),
// or — a cached listing — equals the directory's listing on its shard,
// names, ids, types and order. Concurrency stress tests call it between
// drained rounds — it is what catches grant/revoke interleaving bugs
// that sequential coherence tests cannot.
func (d *Deployment) CheckCacheCoherence(now time.Duration) error {
	for i, fs := range d.FSs {
		cc := fs.attrs
		if !cc.enabled() {
			continue
		}
		for _, ino := range cc.attrs.Keys() {
			e, ok := cc.attrs.Peek(ino)
			if !ok || now >= e.exp {
				continue // expired: never served again
			}
			row, live := d.Service.shard(ino).inodes.Peek(ino)
			if !live {
				return fmt.Errorf("core: node %d holds a leased attr for dead inode %d", i, ino)
			}
			if row.attr() != e.attr {
				return fmt.Errorf("core: node %d holds stale leased attrs for inode %d: cached %+v, table %+v",
					i, ino, e.attr, row.attr())
			}
		}
		for _, k := range cc.dents.Keys() {
			e, ok := cc.dents.Peek(k)
			if !ok || now >= e.exp {
				continue
			}
			de, exists := d.Service.shard(k.parent).dentries.Peek(dentryKey{Parent: k.parent, Name: k.name})
			if e.child == 0 {
				if exists {
					return fmt.Errorf("core: node %d holds a negative dentry for existing %d/%s", i, k.parent, k.name)
				}
				continue
			}
			if !exists || de.Child != e.child {
				return fmt.Errorf("core: node %d holds a stale dentry %d/%s -> %d (table: %v, %d)",
					i, k.parent, k.name, e.child, exists, de.Child)
			}
		}
		for _, dir := range cc.lists.byDir.Keys() {
			ents, _ := cc.lists.byDir.Peek(dir)
			e, ok := cc.attrs.Peek(dir)
			if !ok {
				return fmt.Errorf("core: node %d holds a listing of %d without its attribute entry", i, dir)
			}
			if now >= e.exp {
				continue
			}
			// An untimed read handle: the check charges no virtual time.
			want := listDentries(&mdb.Tx{}, d.Service.shard(dir).dentries, dir)
			if !slices.Equal(ents, want) {
				return fmt.Errorf("core: node %d holds a stale listing of %d: cached %v, table %v", i, dir, ents, want)
			}
		}
	}
	return nil
}

// ---- Service-side grant/revoke helpers (run under the shard's CPU,
// inside the operation body the transport executes) ----

// Grants are derived from table state *at the grant instant* via
// yield-free Peeks — never from a value read before a scheduler yield
// (a transaction commit wait, a recall window with the CPU released, a
// peer-shard hop). A mutation that commits during such a window has
// already updated the table, so the Peek grants the post-mutation
// truth (or nothing, if the row/dentry died); a mutation that commits
// after the grant finds the holder in the lease table and recalls it.
// Either way no stale entry is ever installed under a lease. This
// Peek-at-grant discipline stays load-bearing under the row-lock layer:
// reads take no row locks, so a grant can still race a mutation's
// locked span — it just can never install anything the span's commits
// have made stale.

// grantAttr leases id's attributes as of the grant instant (and
// optionally the underlying mapping, which is immutable while the
// inode lives) and installs them in the session's cache.
func (s *Service) grantAttr(p *sim.Proc, sess *Session, id vfs.Ino, upath string) {
	if !s.leases.enabled() || sess == nil {
		return
	}
	row, ok := s.inodes.Peek(id)
	if !ok {
		return
	}
	exp := s.leases.grant(p.Now(), attrLease(id), sess)
	sess.cache.installAttr(p, row.attr(), upath, exp)
}

// grantDentry leases the resolution (parent, name) -> child, but only
// if the dentry still resolves to child at the grant instant.
func (s *Service) grantDentry(p *sim.Proc, sess *Session, parent vfs.Ino, name string, child vfs.Ino) {
	if !s.leases.enabled() || sess == nil {
		return
	}
	if de, ok := s.dentries.Peek(dentryKey{Parent: parent, Name: name}); !ok || de.Child != child {
		return
	}
	exp := s.leases.grant(p.Now(), dentLease(parent, name), sess)
	sess.cache.installDentry(parent, name, child, exp)
}

// grantNegative leases the absence of (parent, name), but only if the
// name is still absent at the grant instant.
func (s *Service) grantNegative(p *sim.Proc, sess *Session, parent vfs.Ino, name string) {
	if !s.leases.enabled() || sess == nil {
		return
	}
	if _, ok := s.dentries.Peek(dentryKey{Parent: parent, Name: name}); ok {
		return
	}
	exp := s.leases.grant(p.Now(), dentLease(parent, name), sess)
	sess.cache.installDentry(parent, name, 0, exp)
}

// grantListing installs dir's listing in the session's cache, but only
// when the session already holds a live lease on dir's attributes; that
// lease is refreshed like any read grant. It runs inside the listing's
// snapshot read, at its instant, with din the directory row that
// snapshot read. Every dentry mutation under dir recalls the lease on
// dir's attributes at its commit (Create, Remove, Rename, Link and their
// cross-shard forms), and the listing dies with that cache entry. A
// session without the lease gets nothing installed, so a listing never
// adds a holder and never books a recall.
func (s *Service) grantListing(p *sim.Proc, sess *Session, din inodeRow, ents []vfs.DirEntry) {
	if !s.leases.enabled() || sess == nil || !sess.cache.fitsListing(len(ents)) ||
		!s.leases.holdsAttr(p.Now(), din.ID, sess) {
		return
	}
	exp := s.leases.grant(p.Now(), attrLease(din.ID), sess)
	sess.cache.installListing(din.attr(), ents, exp)
}

// recallGroupLeases recalls every lease this shard's table holds on
// rows of the given (just-migrated) groups: the groups' attribute
// leases and every dentry lease — positive or negative — under the
// directories they name. Migration has no mutating session, so nobody
// is exempt; entries die at the batch's commit instant and the recall
// messages are charged to the migration. Keys are recalled in
// deterministic order (the lease table is a map): dentries by parent
// and name, then attributes by inode.
func (s *Service) recallGroupLeases(p *sim.Proc, ids []vfs.Ino) {
	if !s.leases.enabled() {
		return
	}
	moved := make(map[vfs.Ino]bool, len(ids))
	for _, id := range ids {
		moved[id] = true
	}
	var dents []dentryKey
	for k := range s.leases.dents {
		if moved[k.Parent] {
			dents = append(dents, k)
		}
	}
	slices.SortFunc(dents, func(a, b dentryKey) int {
		return cmp.Or(cmp.Compare(a.Parent, b.Parent), strings.Compare(a.Name, b.Name))
	})
	var attrs []vfs.Ino
	for ino := range s.leases.attrs {
		if moved[ino] {
			attrs = append(attrs, ino)
		}
	}
	slices.Sort(attrs)
	keys := make([]leaseKey, 0, len(dents)+len(attrs))
	for _, k := range dents {
		keys = append(keys, dentLease(k.Parent, k.Name))
	}
	for _, ino := range attrs {
		keys = append(keys, attrLease(ino))
	}
	s.revokeLeases(p, nil, keys...)
}

// revokeLeases recalls every given key from every holder. Cache
// entries die at the commit instant; then the recall messages are
// charged to the mutation (one callback per victim session), with the
// shard's CPU released while they are on the wire — the same
// non-blocking-server discipline as peerCall. The mutating session's
// own entry dies too — its holder record is wiped with the key, so if
// the follow-up grant is skipped (the row or dentry died in a racing
// window) no untracked entry may survive — but it gets no recall
// message: its notification rides the reply it is already waiting for.
func (s *Service) revokeLeases(p *sim.Proc, except *Session, keys ...leaseKey) {
	if !s.leases.enabled() {
		return
	}
	now := p.Now()
	var victims []*Session
	if n := len(s.recalls); n > 0 {
		victims, s.recalls = s.recalls[n-1], s.recalls[:n-1]
	}
	for _, key := range keys {
		if except != nil {
			except.cache.revoke(key)
		}
		for _, sess := range s.leases.revoke(now, key, except) {
			sess.cache.revoke(key)
			s.Stats.Revocations++
			if !slices.Contains(victims, sess) {
				victims = append(victims, sess)
			}
		}
	}
	if len(victims) == 0 {
		if victims != nil {
			s.recalls = append(s.recalls, victims)
		}
		return
	}
	// The buffer stays out of the free list while the recalls are on the
	// wire: a revoke another operation commits on this shard meanwhile
	// takes another.
	s.host.CPU.Release(p)
	for _, sess := range victims {
		// The invalidation already happened above; the callback charges
		// the recall's transfer and the client-side dispatch.
		sess.conns[s.shardID].Callback(p, 96, func(p *sim.Proc) {})
	}
	s.host.CPU.Acquire(p)
	clear(victims)
	s.recalls = append(s.recalls, victims[:0])
}
