package core_test

import (
	"fmt"
	"path"
	"testing"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// These tests pin the coherence contract of the lease-based client
// cache (params.COFSParams.AttrLease): node A fills its cache, node B
// mutates the same objects from another node, and A must observe the
// mutation immediately — stale reads are impossible with leases on, at
// any shard count. The kernel dentry cache above COFS is put on a
// 1-nanosecond entry timeout so every path walk reaches the COFS layer
// and the lease-protected cache (not the FUSE dcache) is what the
// assertions exercise.

// crossNodeCase is one scripted cross-node scenario. Node 0 (A) plays
// setup and stats path, which caches it under a lease; node 1 (B) then
// mutates, and verify holds A's next look to the mutation. before and
// beforeErr are what A's stat of path saw.
type crossNodeCase struct {
	name   string
	seed   int64 // plus the shard count
	setup  []trace.Op
	path   string
	mutate func(p *sim.Proc, B *vfs.Mount) error
	verify func(t *testing.T, p *sim.Proc, A *vfs.Mount, before vfs.Attr, beforeErr error)
}

var ctxA, ctxB = cluster.Ctx(0, 1), cluster.Ctx(1, 1)

// cache plays c's set-up and has A stat c.path, which caches it under a
// lease, and returns what A saw.
func (c crossNodeCase) cache(t *testing.T, tb *cluster.Testbed, d *core.Deployment) (vfs.Attr, error) {
	t.Helper()
	core.Play(t, tb, d, c.setup...)
	var before vfs.Attr
	var beforeErr error
	core.Drained(tb, "cache", func(p *sim.Proc) { before, beforeErr = d.Mounts[0].Stat(p, ctxA, c.path) })
	return before, beforeErr
}

var crossNodeCases = []crossNodeCase{
	{"chmod", 100, []trace.Op{core.Mkdir(0, "/d", 0777), core.Create(0, "/d/f", 0644)}, "/d/f",
		func(p *sim.Proc, B *vfs.Mount) error { _, err := B.Chmod(p, ctxB, "/d/f", 0600); return err },
		func(t *testing.T, p *sim.Proc, A *vfs.Mount, _ vfs.Attr, _ error) {
			attr, err := A.Stat(p, ctxA, "/d/f")
			if err != nil || attr.Mode != 0600 {
				t.Errorf("stale mode after cross-node chmod: %o, %v", attr.Mode, err)
			}
		}},
	{"writeback-size", 200, []trace.Op{core.Create(0, "/f", 0666)}, "/f",
		func(p *sim.Proc, B *vfs.Mount) error {
			g, err := B.Open(p, ctxB, "/f", vfs.OpenWrite)
			if err != nil {
				return err
			}
			g.WriteAt(p, 0, 777)
			return g.Close(p)
		},
		func(t *testing.T, p *sim.Proc, A *vfs.Mount, _ vfs.Attr, _ error) {
			attr, err := A.Stat(p, ctxA, "/f")
			if err != nil || attr.Size != 777 {
				t.Errorf("stale size after cross-node write-back: %d, %v", attr.Size, err)
			}
		}},
	{"rename", 300, []trace.Op{core.Mkdir(0, "/d", 0777), core.Create(0, "/d/f", 0644)}, "/d/f",
		func(p *sim.Proc, B *vfs.Mount) error { return B.Rename(p, ctxB, "/d/f", "/d/g") },
		func(t *testing.T, p *sim.Proc, A *vfs.Mount, before vfs.Attr, _ error) {
			if _, err := A.Stat(p, ctxA, "/d/f"); err != vfs.ErrNotExist {
				t.Errorf("renamed-away name still resolves on A: %v", err)
			}
			attr, err := A.Stat(p, ctxA, "/d/g")
			if err != nil || attr.Ino != before.Ino {
				t.Errorf("renamed-in name wrong on A: %+v, %v", attr, err)
			}
		}},
	{"remove", 400, []trace.Op{core.Mkdir(0, "/d", 0777), core.Create(0, "/d/f", 0644)}, "/d/f",
		func(p *sim.Proc, B *vfs.Mount) error { return B.Unlink(p, ctxB, "/d/f") },
		func(t *testing.T, p *sim.Proc, A *vfs.Mount, _ vfs.Attr, _ error) {
			if _, err := A.Stat(p, ctxA, "/d/f"); err != vfs.ErrNotExist {
				t.Errorf("removed file still resolves on A: %v", err)
			}
			// And the name is reusable from A.
			f, err := A.Create(p, ctxA, "/d/f", 0644)
			if err != nil {
				t.Errorf("re-create after cross-node remove: %v", err)
				return
			}
			f.Close(p)
		}},
	// A caches the miss as a negative dentry.
	{"negative-dentry", 500, []trace.Op{core.Mkdir(0, "/d", 0777)}, "/d/nope",
		func(p *sim.Proc, B *vfs.Mount) error {
			f, err := B.Create(p, ctxB, "/d/nope", 0640)
			if err != nil {
				return err
			}
			return f.Close(p)
		},
		func(t *testing.T, p *sim.Proc, A *vfs.Mount, _ vfs.Attr, beforeErr error) {
			if beforeErr != vfs.ErrNotExist {
				t.Errorf("expected ENOENT, got %v", beforeErr)
			}
			attr, err := A.Stat(p, ctxA, "/d/nope")
			if err != nil || attr.Mode != 0640 {
				t.Errorf("negative dentry survived cross-node create: %+v, %v", attr, err)
			}
		}},
	{"link-nlink", 700, []trace.Op{core.Create(0, "/x", 0644)}, "/x",
		func(p *sim.Proc, B *vfs.Mount) error { return B.Link(p, ctxB, "/x", "/y") },
		func(t *testing.T, p *sim.Proc, A *vfs.Mount, _ vfs.Attr, _ error) {
			attr, err := A.Stat(p, ctxA, "/x")
			if err != nil || attr.Nlink != 2 {
				t.Errorf("stale nlink after cross-node link: %d, %v", attr.Nlink, err)
			}
		}},
}

func TestLeaseCacheCrossNodeCoherence(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			for _, c := range crossNodeCases {
				t.Run(c.name, func(t *testing.T) {
					tb, d := core.Rig(t, c.seed+int64(shards), 2, core.Shards(shards), core.Leases, core.NoKernelEntries)
					A, B := d.Mounts[0], d.Mounts[1]
					before, beforeErr := c.cache(t, tb, d)
					core.Drained(tb, "mutate", func(p *sim.Proc) {
						if err := c.mutate(p, B); err != nil {
							t.Error(err)
						}
					})
					// No leased entry may outlive the mutation, even one
					// A's next look would not reach.
					core.CheckPlane(t, tb, d, core.PlaneCaches)
					core.Drained(tb, "verify", func(p *sim.Proc) { c.verify(t, p, A, before, beforeErr) })
					core.CheckPlane(t, tb, d, core.PlaneTables)
				})
			}

			t.Run("readdir-fill-then-chmod", func(t *testing.T) {
				tb, d := core.Rig(t, 600+int64(shards), 2, core.Shards(shards), core.Leases, core.NoKernelEntries)
				A, B := d.Mounts[0], d.Mounts[1]
				core.Play(t, tb, d, core.Mkdir(1, "/d", 0777), core.Create(1, "/d/f0", 0644), core.Create(1, "/d/f1", 0644),
					core.Create(1, "/d/f2", 0644), core.Create(1, "/d/f3", 0644))
				core.Drained(tb, "fill", func(p *sim.Proc) {
					// A lists /d and stats what came first and second: the
					// statahead fills A's cache with every entry. (Straight
					// at the FS layer: with this rig's 1 ns entry timeout a
					// path walk in between would spend the listing's record.)
					dir, err := A.Stat(p, ctxA, "/d")
					if err != nil {
						t.Error(err)
						return
					}
					ents, err := d.FSs[0].Readdir(p, ctxA, dir.Ino)
					if err != nil || len(ents) != 4 {
						t.Errorf("listing: %d entries, %v", len(ents), err)
						return
					}
					for _, e := range ents[:2] {
						if _, err := d.FSs[0].Getattr(p, ctxA, e.Ino); err != nil {
							t.Error(err)
						}
					}
				})
				if n := d.FSs[0].Stats.Stataheads; n != 1 {
					t.Fatalf("%d stataheads filled A's cache, want 1", n)
				}
				core.Drained(tb, "mutate", func(p *sim.Proc) {
					if _, err := B.Chmod(p, ctxB, "/d/f2", 0600); err != nil {
						t.Error(err)
					}
				})
				core.Drained(tb, "verify", func(p *sim.Proc) {
					attr, err := A.Stat(p, ctxA, "/d/f2")
					if err != nil || attr.Mode != 0600 {
						t.Errorf("statahead-filled attr stale after cross-node chmod: %o, %v", attr.Mode, err)
					}
					// The untouched sibling still serves from cache.
					before := d.FSs[0].Stats.ServiceOps
					if attr, err := A.Stat(p, ctxA, "/d/f1"); err != nil || attr.Mode != 0644 {
						t.Errorf("sibling attr wrong: %o, %v", attr.Mode, err)
					}
					if after := d.FSs[0].Stats.ServiceOps; after != before {
						t.Errorf("sibling stat went to the service (%d -> %d ops): the statahead filled nothing", before, after)
					}
				})
			})

			t.Run("listing", func(t *testing.T) {
				tb, d := core.Rig(t, 800+int64(shards), 2, core.Shards(shards), core.Leases, core.NoKernelEntries)
				A, B := d.Mounts[0], d.Mounts[1]
				// oracle plays node 1's ops on an in-memory file system.
				oracle := trace.Target{Env: tb.Env, Mounts: []*vfs.Mount{nil, vfs.NewMount(vfs.NewMemFS(), params.FUSEParams{})}}
				// The rename partner of /d: a directory whose dentries live on
				// another shard whenever there is one.
				other := core.AwayFrom(shards, "d", "o")
				// both plays ops on B and on the oracle alike.
				both := func(ops ...trace.Op) {
					t.Helper()
					core.Play(t, tb, d, ops...)
					if _, err := trace.Run(oracle, []trace.Phase{{Ops: ops}}, nil); err != nil {
						t.Fatal(err)
					}
				}
				both(core.Mkdir(1, "/d", 0777), core.Mkdir(1, other, 0777), core.Create(1, "/d/f0", 0644), core.Create(1, "/d/f1", 0644),
					core.Create(1, "/d/f2", 0644), core.Create(1, "/d/f3", 0644), core.Create(1, other+"/x", 0644))
				if shards > 1 {
					var dAttr, oAttr vfs.Attr
					core.Drained(tb, "placement", func(p *sim.Proc) {
						dAttr, _ = B.Stat(p, ctxB, "/d")
						oAttr, _ = B.Stat(p, ctxB, other)
					})
					if d.Service.Of(dAttr.Ino) == d.Service.Of(oAttr.Ino) {
						t.Fatalf("/d and %s share shard %d: the renames would not cross shards", other, d.Service.Of(dAttr.Ino))
					}
				}
				// listTwice has A list /d twice; both listings must equal the
				// oracle's, and wantHits of them come from A's cache.
				listTwice := func(what string, wantHits int64) {
					t.Helper()
					before := d.Counters().Get("cache.listing-hits")
					core.Drained(tb, "list", func(p *sim.Proc) {
						want, err := oracle.Mounts[1].Readdir(p, ctxB, "/d")
						if err != nil {
							t.Error(err)
							return
						}
						for i := 0; i < 2; i++ {
							got, err := A.Readdir(p, ctxA, "/d")
							if err != nil || len(got) != len(want) {
								t.Errorf("after %s: A's listing %v, %v; oracle %v", what, got, err, want)
								return
							}
							for j := range got {
								if got[j].Name != want[j].Name || got[j].Type != want[j].Type {
									t.Errorf("after %s: A's listing %v, oracle %v", what, got, want)
									return
								}
							}
						}
					})
					if hits := d.Counters().Get("cache.listing-hits") - before; hits != wantHits {
						t.Errorf("after %s: %d of A's two listings were cache hits, want %d", what, hits, wantHits)
					}
					if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
						t.Fatalf("after %s: %v", what, err)
					}
				}
				// The first listing rides the lease A's path walk took on /d;
				// the second is served from A's cache.
				listTwice("setup", 1)
				for _, m := range []struct {
					what string
					op   trace.Op
				}{
					{"create", core.Create(1, "/d/new", 0644)},
					{"unlink", core.Op(1, trace.Unlink, "/d/f0", "")},
					{"mkdir", core.Mkdir(1, "/d/sub", 0755)},
					{"rmdir", core.Op(1, trace.Rmdir, "/d/sub", "")},
					{"link", core.Op(1, trace.Link, "/d/f1", "/d/hard")},
					{"rename out", core.Op(1, trace.Rename, "/d/f2", other+"/f2")},
					{"rename in", core.Op(1, trace.Rename, other+"/x", "/d/x")},
				} {
					both(m.op)
					listTwice(m.what, 1)
				}
				// A child's attributes are not the listing: it stays cached.
				both(core.Chmod(1, "/d/f3", 0600))
				listTwice("chmod of a child", 2)
				core.CheckPlane(t, tb, d, core.PlaneTables)
			})
		})
	}
}

// TestLeaseCacheActuallyServes guards the coherence tests against
// vacuity: with leases on and no interleaved mutation, a repeated stat
// must be served from the client cache (no service round trip), so the
// cross-node tests above really do race a populated cache.
func TestLeaseCacheActuallyServes(t *testing.T) {
	tb, d := core.Rig(t, 42, 2, core.Shards(1), core.Leases, core.NoKernelEntries)
	A := d.Mounts[0]
	core.Play(t, tb, d, core.Mkdir(0, "/d", 0777), core.Create(0, "/d/f", 0644), core.Stat(0, "/d/f"))
	before := d.FSs[0].Stats.ServiceOps
	core.Drained(tb, "restat", func(p *sim.Proc) {
		if _, err := A.Stat(p, ctxA, "/d/f"); err != nil {
			t.Error(err)
		}
	})
	if after := d.FSs[0].Stats.ServiceOps; after != before {
		t.Fatalf("repeated stat went to the service (%d -> %d ops): cache not serving", before, after)
	}
	if hits := d.FSs[0].CacheStats(); hits.Hits == 0 || hits.DentryHits == 0 {
		t.Fatalf("no cache hits recorded: %+v", hits)
	}
}

// TestLeaseRecallsAreCounted checks the observability surface: a
// cross-node mutation of a leased attr shows up in the per-layer
// counters (shard revocations, client cache revoked entries, recall
// messages on the wire).
func TestLeaseRecallsAreCounted(t *testing.T) {
	tb, d := core.Rig(t, 43, 2, core.Shards(2), core.Leases, core.NoKernelEntries)
	core.Play(t, tb, d, core.Create(0, "/f", 0666), core.Stat(0, "/f"))
	core.Play(t, tb, d, core.Chmod(1, "/f", 0600))
	c := d.Counters()
	if c.Get("mds.lease-revocations") == 0 {
		t.Fatalf("no shard revocations counted: %v", c)
	}
	if c.Get("cache.lease-revoked") == 0 {
		t.Fatalf("no client entries revoked: %v", c)
	}
	if c.Get("rpc.client.lease-recalls") == 0 {
		t.Fatalf("no recall messages on the wire: %v", c)
	}
}

// TestLeaseCoherenceUnderConcurrency hammers a small shared namespace
// from many procs on several nodes with leases on, then checks the
// protocol's core invariant at every drained round: each still-leased
// cache entry equals the authoritative table state
// (Deployment.CheckCacheCoherence). Unlike the sequential scenarios
// above, this exercises the racing interleavings — grants landing
// while another node's mutation is in its commit/recall/peer-hop
// window — where a stale-but-leased entry could otherwise slip in.
func TestLeaseCoherenceUnderConcurrency(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			tb, d := core.Rig(t, 900+int64(shards), 4, core.Shards(shards), core.Leases, core.NoKernelEntries)
			core.Play(t, tb, d, core.Mkdir(0, "/w", 0777), core.Mkdir(0, "/v", 0777))
			// Two working directories (placed on different shards by the
			// shard map when shards > 1), so renames below cross both
			// directories and shards.
			name := func(i int) string {
				if i%2 == 0 {
					return fmt.Sprintf("/w/n%d", i%4)
				}
				return fmt.Sprintf("/v/n%d", i%4)
			}
			for round := 0; round < 6; round++ {
				for node := 0; node < 4; node++ {
					for pid := 1; pid <= 4; pid++ {
						node, pid, round := node, pid, round
						tb.Env.Spawn("storm", func(p *sim.Proc) {
							m := d.Mounts[node]
							ctx := cluster.Ctx(node, pid)
							rng := tb.Env.RNG(fmt.Sprintf("storm.%d.%d.%d", round, node, pid))
							for i := 0; i < 64; i++ {
								x := rng.Intn(10)
								// Every op races the other seven procs on
								// the same six names; individual ENOENT /
								// EEXIST / EISDIR outcomes are expected.
								switch x {
								case 0, 1:
									if f, err := m.Create(p, ctx, name(i), 0644); err == nil {
										f.Close(p)
									}
								case 2:
									m.Unlink(p, ctx, name(i))
								case 3:
									m.Chmod(p, ctx, name(i), 0600+uint32(node))
								case 4:
									// Unrestricted concurrent renames, incl.
									// cross-directory/cross-shard: the
									// lock-ordered transaction layer
									// (twophase.go, txnlock.go) serializes
									// the conflicting interleavings that
									// used to break plane invariants here.
									m.Rename(p, ctx, name(i), name(i+1))
								case 5:
									m.Utime(p, ctx, name(i))
								case 6:
									if f, err := m.Open(p, ctx, name(i), vfs.OpenWrite); err == nil {
										f.WriteAt(p, 0, int64(64+node))
										f.Close(p)
									}
								case 7:
									// Listings ride the lease the path walk
									// took on the directory: the checker
									// below holds every cached one to the
									// shard's table.
									m.Readdir(p, ctx, path.Dir(name(i)))
								default:
									m.Stat(p, ctx, name(i))
								}
							}
						})
					}
				}
				tb.Run()
				if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if err := d.Service.CheckInvariants(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if d.Counters().Get("cache.listing-hits") == 0 {
				t.Fatal("no listing was served from a cache: the checker saw none")
			}
		})
	}
}
