package core

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/mdb"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// These tests pin the listing: what it costs the shard that serves it
// (Service.readdir), and for the cached listing (Service.grantListing,
// FS.Readdir) who may read it, how much of it a client keeps, and that
// the coherence checker holds it to the shard's table.

// TestListingShardCost: a names-only listing is the directory's row plus
// one index read of its dentry rows, so it holds the shard's worker
// exactly as long for 4 entries as for 512; only the reply grows, 96 +
// 64 bytes an entry. A plus listing still reads each co-located child's
// inode row, one table operation each, and replies 96 + 160 bytes an
// entry.
func TestListingShardCost(t *testing.T) {
	tb, d := Rig(t, 11, 2)
	cfg := tb.Cfg
	sizes := []int{4, 512}
	dirs := make([]vfs.Ino, len(sizes))
	for _, n := range sizes {
		Play(t, tb, d, Dir(1, fmt.Sprintf("/d%d", n), 0755, n, "f%03d", 0)...)
	}
	Drained(tb, "ids", func(p *sim.Proc) {
		for i, n := range sizes {
			attr, err := d.Mounts[1].Stat(p, cluster.Ctx(1, 1), fmt.Sprintf("/d%d", n))
			if err != nil {
				t.Fatal(err)
			}
			dirs[i] = attr.Ino
		}
	})
	sess, ctx := d.FSs[0].Session(), cluster.Ctx(0, 1)
	for _, plus := range []bool{false, true} {
		var busy []time.Duration
		for i, n := range sizes {
			// The shard that owns the directory serves the listing; the
			// plus count below assumes it owns every child too.
			owner := d.Service.Of(dirs[i])
			cpu := d.Service.Shards()[owner].host.CPU
			busy0, bytes0 := cpu.BusyTotal, tb.Net.Bytes
			Drained(tb, "list", func(p *sim.Proc) {
				var ents []vfs.DirEntry
				var err error
				if plus {
					ents, _, err = d.Service.ReaddirPlus(p, sess, ctx, dirs[i])
				} else {
					ents, err = d.Service.Readdir(p, sess, ctx, dirs[i])
				}
				if err != nil || len(ents) != n {
					t.Fatalf("listing (plus=%v) of %d entries: %d, %v", plus, n, len(ents), err)
				}
				for _, e := range ents {
					if s := d.Service.Of(e.Ino); s != owner {
						t.Fatalf("%s in directory %d lives on shard %d, not on its directory's shard %d", e.Name, dirs[i], s, owner)
					}
				}
			})
			ops := 2 // the directory's row and the index read
			if plus {
				ops += n
			}
			busy = append(busy, cpu.BusyTotal-busy0)
			if want := cfg.COFS.ServiceCPUPerOp + time.Duration(ops)*cfg.COFS.DBOpTime; busy[i] != want {
				t.Errorf("listing (plus=%v) of %d entries held the shard %v, want %v (%d table operations)", plus, n, busy[i], want, ops)
			}
			// The request is 96 bytes; the reply is listingBytes.
			if got, want := tb.Net.Bytes-bytes0, 96+listingBytes(n, plus); got != want {
				t.Errorf("listing (plus=%v) of %d entries moved %d bytes, want %d", plus, n, got, want)
			}
		}
		if !plus && busy[0] != busy[1] {
			t.Errorf("a names-only listing held the shard %v at %d entries and %v at %d", busy[0], sizes[0], busy[1], sizes[1])
		}
	}
}

// dirSpec is a directory listingRig makes and how many files it holds.
type dirSpec struct {
	path  string
	files int
}

// listingRig deploys a 2-node, 1-shard COFS with the lease cache on and
// an attribute capacity of entries; node 1 makes the directories, so
// node 0 starts with nothing cached.
func listingRig(t *testing.T, entries int, dirs ...dirSpec) (*cluster.Testbed, *Deployment) {
	t.Helper()
	tb, d := Rig(t, 11, 2, Leases, func(c *params.Config) { c.COFS.AttrCacheEntries = entries })
	var ops []trace.Op
	for _, dir := range dirs {
		ops = append(ops, Dir(1, dir.path, 0755, dir.files, "f%02d", 0)...)
	}
	Play(t, tb, d, ops...)
	return tb, d
}

// listOn lists dir on node 0 as ctx and reports whether the listing came
// from node 0's cache.
func listOn(t *testing.T, tb *cluster.Testbed, d *Deployment, ctx vfs.Ctx, dir string) (hit bool, err error) {
	t.Helper()
	fs := d.FSs[0]
	hits, ops := fs.CacheStats().ListingHits, fs.Stats.ServiceOps
	Drained(tb, "list", func(p *sim.Proc) { _, err = d.Mounts[0].Readdir(p, ctx, dir) })
	hit = fs.CacheStats().ListingHits == hits+1
	if hit && fs.Stats.ServiceOps != ops {
		t.Fatalf("listing %s counted a hit but went to the service", dir)
	}
	return hit, err
}

// TestListingAllocsOneSlice pins the names-only listing snapshot's host
// cost: listing a 64-entry directory walks the parent index's ordered
// run in place and allocates exactly the one []vfs.DirEntry it returns —
// no collected rows, no sort, no copy.
func TestListingAllocsOneSlice(t *testing.T) {
	skipUnderRace(t)
	tb, d := Rig(t, 1, 1)
	Play(t, tb, d, Dir(0, "/d", 0755, 64, "f%02d", 0)...)
	dir := Ino(t, tb, d, "/d")
	dentries := d.Service.shard(dir).dentries
	// An untimed read handle, as the coherence checker reads with.
	tx := &mdb.Tx{}
	var ents []vfs.DirEntry
	if n := testing.AllocsPerRun(100, func() { ents = listDentries(tx, dentries, dir) }); n != 1 {
		t.Errorf("listing 64 entries allocates %v, want 1", n)
	}
	if len(ents) != 64 || ents[0].Name != "f00" || ents[63].Name != "f63" {
		t.Errorf("listed %d entries, %v first; want f00..f63", len(ents), ents[:min(len(ents), 1)])
	}
}

// TestCachedListingChecksPermission: a listing cached for one user is
// refused to another without read permission on the directory, with the
// error the shard gives, and the refusal costs no round trip.
func TestCachedListingChecksPermission(t *testing.T) {
	tb, d := listingRig(t, 64)
	owner := cluster.Ctx(0, 1)
	stranger := vfs.Ctx{Node: 0, PID: 2, UID: owner.UID + 1, GID: owner.GID + 1}
	Drained(tb, "private", func(p *sim.Proc) {
		if err := d.Mounts[0].Mkdir(p, owner, "/p", 0700); err != nil {
			t.Fatal(err)
		}
	})
	for i, want := range []bool{false, true} {
		if hit, err := listOn(t, tb, d, owner, "/p"); err != nil || hit != want {
			t.Fatalf("owner's listing %d: hit %v, %v; want hit %v", i+1, hit, err, want)
		}
	}
	ops := d.FSs[0].Stats.ServiceOps
	if hit, err := listOn(t, tb, d, stranger, "/p"); !hit || err != vfs.ErrPerm {
		t.Fatalf("stranger's listing of the cached /p: hit %v, %v; want a hit refused with ErrPerm", hit, err)
	}
	if d.FSs[0].Stats.ServiceOps != ops {
		t.Fatal("the refused listing went to the service")
	}
	// The shard answers the same to a node with nothing cached.
	var err error
	Drained(tb, "shard", func(p *sim.Proc) {
		_, err = d.Mounts[1].Readdir(p, vfs.Ctx{Node: 1, PID: 2, UID: stranger.UID, GID: stranger.GID}, "/p")
	})
	if err != vfs.ErrPerm {
		t.Fatalf("the shard answered the stranger's listing with %v, want ErrPerm", err)
	}
}

// TestCachedListingBudget: cached listings hold at most AttrCacheEntries
// names per client. A longer listing is never cached; over budget, the
// least recently used listing goes.
func TestCachedListingBudget(t *testing.T) {
	const budget = 16
	tb, d := listingRig(t, budget,
		dirSpec{"/big", budget + 1}, dirSpec{"/a", budget / 2}, dirSpec{"/b", budget / 2}, dirSpec{"/c", budget / 2})
	ctx := cluster.Ctx(0, 1)
	step := func(dir string, want bool) {
		t.Helper()
		if hit, err := listOn(t, tb, d, ctx, dir); err != nil || hit != want {
			t.Fatalf("listing %s: hit %v, %v; want hit %v", dir, hit, err, want)
		}
	}
	step("/big", false) // the walk leases /big's attributes ...
	installs := d.FSs[0].CacheStats().Installs
	step("/big", false) // ... but its listing does not fit
	if d.FSs[0].CacheStats().Installs != installs {
		t.Fatal("a listing longer than the budget installed something")
	}
	step("/a", false)
	step("/b", false)
	step("/a", true) // a full budget: /a, then /b least recently used
	step("/c", false)
	step("/a", true)
	step("/c", true)
	step("/b", false) // evicted by /c
	if names := d.FSs[0].attrs.lists.names; names > budget {
		t.Fatalf("%d listed names cached, budget %d", names, budget)
	}
	if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestCoherenceCheckerCatchesStaleListing plants a stale listing by hand
// and requires CheckCacheCoherence to report it.
func TestCoherenceCheckerCatchesStaleListing(t *testing.T) {
	tb, d := listingRig(t, 64, dirSpec{"/d", 3})
	ctx := cluster.Ctx(0, 1)
	for i, want := range []bool{false, true} {
		if hit, err := listOn(t, tb, d, ctx, "/d"); err != nil || hit != want {
			t.Fatalf("listing %d: hit %v, %v; want hit %v", i+1, hit, err, want)
		}
	}
	if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
		t.Fatalf("a fresh cached listing: %v", err)
	}
	lc := &d.FSs[0].attrs.lists
	dir, ents, _ := lc.byDir.Oldest()
	lc.put(dir, append([]vfs.DirEntry(nil), ents[1:]...)) // f00 is gone
	if err := d.CheckCacheCoherence(tb.Env.Now()); err == nil {
		t.Fatal("the checker passed a listing missing an entry")
	}
}

// TestCachedListingDiesWithItsAttributeEntry: when the attribute LRU
// evicts a directory's entry, the listing riding it goes too.
func TestCachedListingDiesWithItsAttributeEntry(t *testing.T) {
	const entries = 16
	tb, d := listingRig(t, entries, dirSpec{"/a", 4}, dirSpec{"/b", entries})
	ctx := cluster.Ctx(0, 1)
	var dir vfs.Attr
	Drained(tb, "find", func(p *sim.Proc) { dir, _ = d.Mounts[0].Stat(p, ctx, "/a") })
	for i, want := range []bool{false, true} {
		if hit, err := listOn(t, tb, d, ctx, "/a"); err != nil || hit != want {
			t.Fatalf("listing %d: hit %v, %v; want hit %v", i+1, hit, err, want)
		}
	}
	// Leasing every file of /b fills the attribute LRU past /a's entry.
	Drained(tb, "stat", func(p *sim.Proc) {
		for i := 0; i < entries; i++ {
			if _, err := d.Mounts[0].Stat(p, ctx, fmt.Sprintf("/b/f%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if d.FSs[0].attrs.lists.byDir.Contains(dir.Ino) {
		t.Fatal("the listing of /a outlived its attribute entry")
	}
	if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
		t.Fatal(err)
	}
	if hit, err := listOn(t, tb, d, ctx, "/a"); err != nil || hit {
		t.Fatalf("listing /a after eviction: hit %v, %v; want a miss", hit, err)
	}
}
