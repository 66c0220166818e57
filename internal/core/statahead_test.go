package core

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// These tests pin the attributes-on-demand rule (FS.Readdir): a listing
// is names-only unless the process that listed goes on to stat the
// listing's first two entries in order, and then the attributes of the
// whole directory arrive in one RPC. Every assertion is an exact
// counter: what went to the service, what the client installed, what
// the shards lease.

const lsFiles = 8

// lsRig deploys a 2-node, 2-shard COFS and has node 0 fill /d with
// lsFiles files; node 1 is the cold traverser. tweak picks the cache
// mode. The FUSE entry timeout stays at its default, so a stat right
// after a listing resolves through the mount's dentry cache and reaches
// FS as a Getattr of the listed id, like the kernel's would.
func lsRig(t *testing.T, seed int64, tweak func(*params.Config)) (*cluster.Testbed, *Deployment) {
	t.Helper()
	tb, d := Rig(t, seed, 2, Shards(2), tweak)
	Play(t, tb, d, Dir(0, "/d", 0777, lsFiles, "f%d", 0)...)
	// Warm node 1's path to the directory so the passes below count
	// nothing but the traversal itself.
	Play(t, tb, d, Stat(1, "/d"))
	return tb, d
}

// lsL is one `ls -l` of /d from node 1 by process pid, as one drained
// phase: the listing, then a stat of the first `stats` entries in
// listing order.
func lsL(t *testing.T, tb *cluster.Testbed, d *Deployment, pid, stats int) {
	t.Helper()
	Drained(tb, "ls", func(p *sim.Proc) {
		m, ctx := d.Mounts[1], cluster.Ctx(1, pid)
		ents, err := m.Readdir(p, ctx, "/d")
		if err != nil || len(ents) != lsFiles {
			t.Fatalf("readdir: %d entries, %v", len(ents), err)
		}
		for _, e := range ents[:stats] {
			if _, err := m.Stat(p, ctx, "/d/"+e.Name); err != nil {
				t.Fatalf("stat %s: %v", e.Name, err)
			}
		}
	})
}

// tally is what one step cost: service requests by kind, the
// client-side listing counters of node 1, the entries lease recalls
// dropped from node 1's cache, and the (row, session) pairs in the
// shards' lease tables.
type tally struct {
	requests, getattrs, lookups int64
	plus, stataheads, installs  int64
	hits                        int64 // listings served from node 1's cache
	recalls                     int64
	leases                      int
}

func snapshot(d *Deployment) tally {
	ss := d.Service.Stats()
	fs := d.FSs[1]
	t := tally{
		requests: ss.Requests, getattrs: ss.Getattrs, lookups: ss.Lookups,
		plus: fs.Stats.PlusListings, stataheads: fs.Stats.Stataheads,
		installs: fs.CacheStats().Installs, hits: fs.CacheStats().ListingHits,
		recalls: fs.CacheStats().Revocations,
	}
	for _, s := range d.Service.Shards() {
		if lt := s.leases; lt.enabled() {
			for _, head := range lt.attrs {
				t.leases += lt.holderCount(head)
			}
			for _, head := range lt.dents {
				t.leases += lt.holderCount(head)
			}
		}
	}
	return t
}

// holderCount counts the holders on the list at head.
func (lt *leaseTable) holderCount(head int32) int {
	n := 0
	for i := head; i >= 0; i = lt.slab[i].next {
		n++
	}
	return n
}

// since runs step's phases and returns what they added to every
// counter.
func since(d *Deployment, step func()) tally {
	a := snapshot(d)
	step()
	b := snapshot(d)
	return tally{
		requests: b.requests - a.requests, getattrs: b.getattrs - a.getattrs, lookups: b.lookups - a.lookups,
		plus: b.plus - a.plus, stataheads: b.stataheads - a.stataheads, installs: b.installs - a.installs,
		hits: b.hits - a.hits, recalls: b.recalls - a.recalls, leases: b.leases - a.leases,
	}
}

func TestNamesOnlyListingInstallsNothing(t *testing.T) {
	tb, d := lsRig(t, 1, Leases)
	Play(t, tb, d, Mkdir(0, "/d/sub", 0755), Op(0, trace.Symlink, "f0", "/d/sym"))
	var ents []vfs.DirEntry
	got := since(d, func() {
		Drained(tb, "list", func(p *sim.Proc) {
			var err error
			if ents, err = d.Mounts[1].Readdir(p, cluster.Ctx(1, 1), "/d"); err != nil {
				t.Fatal(err)
			}
		})
	})
	if want := (tally{requests: 1}); got != want {
		t.Fatalf("a names-only listing cost %+v, want %+v", got, want)
	}
	if len(ents) != lsFiles+2 {
		t.Fatalf("listing holds %d entries, want %d", len(ents), lsFiles+2)
	}
	// Names, ids and types all come from the dentries.
	for i, e := range ents {
		want := vfs.TypeRegular
		switch e.Name {
		case "sub":
			want = vfs.TypeDir
		case "sym":
			want = vfs.TypeSymlink
		}
		if e.Type != want || e.Ino == 0 {
			t.Errorf("entry %q: type %v ino %d, want type %v", e.Name, e.Type, e.Ino, want)
		}
		if i > 0 && ents[i-1].Name >= e.Name {
			t.Errorf("listing out of order at %q", e.Name)
		}
	}
}

// TestStataheadLsL: a cold `ls -l` costs one names-only listing, the
// first entry's own getattr, and one attribute-carrying listing issued
// from inside the second stat, and no other per-entry RPC; every repeat
// costs exactly one plus listing, which is what each one cost before
// listings were names-only by default.
func TestStataheadLsL(t *testing.T) {
	t.Run("lease", func(t *testing.T) {
		tb, d := lsRig(t, 2, Leases)
		// Installs per plus listing: a dentry and an attribute lease per
		// entry, plus the listing itself, which rides the lease node 1
		// already holds on /d.
		const installs = 2*lsFiles + 1
		cold := since(d, func() { lsL(t, tb, d, 1, lsFiles) })
		// The cold pass's names-only listing is installed too, on the
		// same lease, and so is the first entry's attribute, which the
		// plus listing re-grants: two installs more, and no lease-table
		// entry beyond the plus listing's.
		want := tally{requests: 3, getattrs: 1, plus: 1, stataheads: 1, installs: installs + 2, leases: installs - 1}
		if cold != want {
			t.Fatalf("cold ls -l cost %+v, want %+v", cold, want)
		}
		for pass := 2; pass <= 3; pass++ {
			again := since(d, func() { lsL(t, tb, d, 1, lsFiles) })
			// Re-granting a held lease adds nothing to the lease table.
			want := tally{requests: 1, plus: 1, installs: installs}
			if again != want {
				t.Fatalf("ls -l pass %d cost %+v, want %+v", pass, again, want)
			}
		}
	})
}

// TestStataheadAdviceIsConsumed: a plus listing spends the advice that
// asked for it; a process that lists again without stat-ing the first
// two entries is back to names-only, which the listing the plus one
// installed serves without a round trip.
func TestStataheadAdviceIsConsumed(t *testing.T) {
	tb, d := lsRig(t, 3, Leases)
	lsL(t, tb, d, 1, 2)
	plus := since(d, func() { lsL(t, tb, d, 1, 0) })
	// 2 N entry leases plus the listing, riding node 1's lease on /d.
	if want := (tally{requests: 1, plus: 1, installs: 2*lsFiles + 1}); plus != want {
		t.Fatalf("advised listing cost %+v, want %+v", plus, want)
	}
	// The process's next stat is not of the first entry: nothing earned.
	Play(t, tb, d, Stat(1, fmt.Sprintf("/d/f%d", lsFiles-1)))
	// Nothing changed /d since: the cached listing serves it.
	plain := since(d, func() { lsL(t, tb, d, 1, 0) })
	if want := (tally{hits: 1}); plain != want {
		t.Fatalf("listing after unclaimed advice cost %+v, want %+v", plain, want)
	}
	if n := d.FSs[1].advised.Len(); n != 0 {
		t.Fatalf("%d directories still advised", n)
	}
}

// TestStataheadIsPerProcess: the record belongs to the process that
// listed. Another process stat-ing the same two entries starts nothing;
// the lister's own stats then find the attributes cached, so the
// traversal they start needs no statahead and only advises the next
// listing.
func TestStataheadIsPerProcess(t *testing.T) {
	tb, d := lsRig(t, 4, Leases)
	lsL(t, tb, d, 1, 0)
	sweep := func(pid int) func() {
		return func() { Play(t, tb, d, By(pid, Stat(1, "/d/f0")), By(pid, Stat(1, "/d/f1"))) }
	}
	other := since(d, sweep(2))
	if want := (tally{requests: 2, getattrs: 2, installs: 2, leases: 2}); other != want {
		t.Fatalf("another process's two stats cost %+v, want two plain getattrs %+v", other, want)
	}
	own := since(d, sweep(1))
	if want := (tally{}); own != want {
		t.Fatalf("the lister's cached two-entry sweep cost %+v, want nothing", own)
	}
	next := since(d, func() { lsL(t, tb, d, 1, 0) })
	if next.plus != 1 || next.stataheads != 0 || next.requests != 1 {
		t.Fatalf("listing after a cached two-entry sweep cost %+v, want one plus listing", next)
	}
}

// TestStataheadOnePerDirectory: two processes of one node list /d, the
// second from the cache, stat its first entry, and then stat its second
// entry at the same instant. The second finds the first's statahead in
// flight and waits for it: one attribute-carrying listing serves both
// stats, and neither goes to the service on its own.
func TestStataheadOnePerDirectory(t *testing.T) {
	tb, d := lsRig(t, 8, Leases)
	for pid := 1; pid <= 2; pid++ {
		lsL(t, tb, d, pid, 1)
	}
	got := since(d, func() { Play(t, tb, d, Stat(1, "/d/f1"), By(2, Stat(1, "/d/f1"))) })
	// The first entry's attribute lease is node 1's already, from the
	// first process's getattr; the plus listing re-grants it.
	if want := (tally{requests: 1, plus: 1, stataheads: 1, installs: 2*lsFiles + 1, leases: 2*lsFiles - 1}); got != want {
		t.Fatalf("two concurrent second-entry stats cost %+v, want %+v", got, want)
	}
	if n := len(d.FSs[1].ahead); n != 0 {
		t.Fatalf("%d stataheads still marked in flight", n)
	}
}

// TestStataheadFirstEntryUnlinked: the entry a sweep's statahead fires
// on — the listing's second, since the first only arms the record —
// disappears between the listing and the stat. The statahead lists a
// directory that no longer holds it, the re-probe misses, and the
// single RPC reports the truth.
func TestStataheadFirstEntryUnlinked(t *testing.T) {
	tb, d := lsRig(t, 5, Leases)
	lsL(t, tb, d, 1, 1)
	Play(t, tb, d, Op(0, trace.Unlink, "/d/f1", ""))
	got := since(d, func() { Expect(t, tb, d, vfs.ErrNotExist, Stat(1, "/d/f1")) })
	if got.stataheads != 1 || got.plus != 1 || got.getattrs != 1 {
		t.Fatalf("stat of the unlinked second entry cost %+v, want one statahead and one getattr", got)
	}
	if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestStataheadLoneFirstStat: a process lists /d and stats only the
// entry that sorts first, the way a program after one file does. That
// arms the record and nothing more: no plus listing, no statahead, and
// no lease beyond the entry's own, so another node's chmod of every
// other entry recalls nothing from the lister.
func TestStataheadLoneFirstStat(t *testing.T) {
	tb, d := lsRig(t, 9, Leases)
	got := since(d, func() { lsL(t, tb, d, 1, 1) })
	// The names-only listing rides node 1's lease on /d; the getattr
	// installs and leases the one attribute.
	if want := (tally{requests: 2, getattrs: 1, installs: 2, leases: 1}); got != want {
		t.Fatalf("listing plus a lone first-entry stat cost %+v, want %+v", got, want)
	}
	var chmods []trace.Op
	for i := 1; i < lsFiles; i++ {
		chmods = append(chmods, Chmod(0, fmt.Sprintf("/d/f%d", i), 0600))
	}
	mutate := since(d, func() { Play(t, tb, d, chmods...) })
	// Node 1 leases f0 alone, which no chmod touches: nothing to recall.
	if want := (tally{requests: lsFiles - 1}); mutate != want {
		t.Fatalf("chmods from node 0 cost %+v, want %+v: no recall from the lister", mutate, want)
	}
	// Nothing was advised: the next listing is names-only again, served
	// from the listing node 1 cached.
	next := since(d, func() { lsL(t, tb, d, 1, 0) })
	if want := (tally{hits: 1}); next != want {
		t.Fatalf("listing after a lone first-entry stat cost %+v, want %+v", next, want)
	}
}

// TestStataheadNeedsListingOrder: the sweep must follow the listing. A
// stat of the first entry and then the third starts nothing and spends
// the record, so a stat of the second after them is a plain getattr
// too; so is a sweep that starts at the second entry.
func TestStataheadNeedsListingOrder(t *testing.T) {
	tb, d := lsRig(t, 10, Leases)
	for i, order := range [][]string{{"f0", "f2", "f1"}, {"f1", "f0", "f2"}} {
		pid := i + 1
		ops := []trace.Op{By(pid, Op(1, trace.Readdir, "/d", ""))}
		for _, name := range order {
			ops = append(ops, By(pid, Stat(1, "/d/"+name)))
		}
		got := since(d, func() { Play(t, tb, d, ops...) })
		if got.plus != 0 || got.stataheads != 0 || d.FSs[1].advised.Len() != 0 {
			t.Fatalf("stats in order %v cost %+v with %d directories advised, want no plus listing", order, got, d.FSs[1].advised.Len())
		}
	}
}

// TestStataheadSingleEntryListing: a listing of one entry has no second
// entry to sweep to, so it is not remembered; stat-ing its entry costs
// one plain getattr and the next listing stays names-only.
func TestStataheadSingleEntryListing(t *testing.T) {
	tb, d := lsRig(t, 11, Leases)
	Play(t, tb, d, Mkdir(0, "/e", 0777), Create(0, "/e/only", 0644))
	Play(t, tb, d, Stat(1, "/e"))
	got := since(d, func() {
		Drained(tb, "list-and-stat", func(p *sim.Proc) {
			m, ctx := d.Mounts[1], cluster.Ctx(1, 1)
			if ents, err := m.Readdir(p, ctx, "/e"); err != nil || len(ents) != 1 {
				t.Fatalf("readdir: %d entries, %v", len(ents), err)
			}
			if _, err := m.Stat(p, ctx, "/e/only"); err != nil {
				t.Fatal(err)
			}
		})
	})
	if want := (tally{requests: 2, getattrs: 1, installs: 2, leases: 1}); got != want {
		t.Fatalf("one-entry listing and stat cost %+v, want %+v", got, want)
	}
	if n := len(d.FSs[1].listed); n != 0 {
		t.Fatalf("%d listings remembered, want none", n)
	}
	next := since(d, func() { Play(t, tb, d, Op(1, trace.Readdir, "/e", "")) })
	if want := (tally{hits: 1}); next != want {
		t.Fatalf("listing after the stat cost %+v, want %+v", next, want)
	}
}

// TestStataheadNeedsACache: with the client cache disabled (the paper
// profile) there is nowhere to put attributes, so no listing ever asks
// for them and nothing is remembered.
func TestStataheadNeedsACache(t *testing.T) {
	tb, d := lsRig(t, 6, func(*params.Config) {})
	for pass := 1; pass <= 2; pass++ {
		got := since(d, func() { lsL(t, tb, d, 1, lsFiles) })
		if want := (tally{requests: 1 + lsFiles, getattrs: lsFiles}); got != want {
			t.Fatalf("ls -l pass %d without a cache cost %+v, want %+v", pass, got, want)
		}
	}
	fs := d.FSs[1]
	if len(fs.listed) != 0 || fs.advised.Len() != 0 {
		t.Fatalf("cache-less client remembers %d listings, %d advised directories", len(fs.listed), fs.advised.Len())
	}
}

// TestStandbyNamesOnlyListing: with a hot standby trailing the primary,
// names-only and plus listings are answered by the primary and are
// never stale — whether a child's inode or the directory itself has a
// commit the standby has not applied yet — and types come from the
// dentries either way. On two shards some children's inodes live on
// another shard than the directory, which changes neither listing.
func TestStandbyNamesOnlyListing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			tb, d := Rig(t, 7, 2, Shards(shards))
			sb := DeployStandby(tb, d, 10*time.Millisecond)
			tb.Run()
			const subdirs = 6
			fill := []trace.Op{Mkdir(0, "/d", 0777)}
			for i := 0; i < subdirs; i++ {
				fill = append(fill, Mkdir(0, fmt.Sprintf("/d/sub%d", i), 0755))
			}
			Play(t, tb, d, append(fill, Create(0, "/d/f", 0644))...)
			dir := Ino(t, tb, d, "/d")
			m, ctx := d.Mounts[0], cluster.Ctx(0, 1)
			foreign := 0
			for _, s := range d.Service.Shards() {
				s.dentries.Each(func(k dentryKey, de dentryRow) {
					if k.Parent == dir && d.Service.Of(de.Child) != d.Service.Of(dir) {
						foreign++
					}
				})
			}
			if (shards > 1) != (foreign > 0) {
				t.Fatalf("%d of /d's children live on a foreign shard at %d shards", foreign, shards)
			}

			sess, rctx := d.FSs[1].Session(), cluster.Ctx(1, 1)
			list := func(p *sim.Proc, plus bool, wantEnts int, wantLag bool) []vfs.Attr {
				t.Helper()
				if lagging := sb.Lag() > 0; lagging != wantLag {
					t.Fatalf("listing (plus=%v): standby lag %d, want lagging=%v", plus, sb.Lag(), wantLag)
				}
				var ents []vfs.DirEntry
				var attrs []vfs.Attr
				var err error
				if plus {
					ents, attrs, err = d.Service.ReaddirPlus(p, sess, rctx, dir)
				} else {
					ents, err = d.Service.Readdir(p, sess, rctx, dir)
				}
				if err != nil || len(ents) != wantEnts {
					t.Fatalf("listing (plus=%v): %d entries, %v; want %d", plus, len(ents), err, wantEnts)
				}
				for _, e := range ents {
					want := vfs.TypeDir
					if e.Name[0] == 'f' {
						want = vfs.TypeRegular
					}
					if e.Type != want {
						t.Errorf("listing (plus=%v): %s has type %v, want %v", plus, e.Name, e.Type, want)
					}
				}
				return attrs
			}

			Drained(tb, "shipped", func(p *sim.Proc) {
				list(p, false, subdirs+1, false)
				list(p, true, subdirs+1, false)
			})
			Drained(tb, "child-in-window", func(p *sim.Proc) {
				if _, err := m.Chmod(p, ctx, "/d/f", 0600); err != nil {
					t.Fatal(err)
				}
				list(p, false, subdirs+1, true)
				attrs := list(p, true, subdirs+1, true)
				if attrs[0].Mode != 0600 {
					t.Fatalf("plus listing inside the shipping window returned mode %o, want 600", attrs[0].Mode)
				}
			})
			Drained(tb, "directory-in-window", func(p *sim.Proc) {
				f, err := m.Create(p, ctx, "/d/f2", 0644)
				if err != nil {
					t.Fatal(err)
				}
				f.Close(p)
				list(p, false, subdirs+2, true)
				list(p, true, subdirs+2, true)
			})
			if sb.Lag() != 0 {
				t.Fatalf("standby lag after drain = %d, want 0", sb.Lag())
			}
		})
	}
}
