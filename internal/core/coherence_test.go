package core_test

import (
	"fmt"
	"path"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
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

// coherenceRig deploys a 2-node COFS with the lease cache on.
func coherenceRig(t *testing.T, seed int64, shards int) (*cluster.Testbed, *core.Deployment) {
	t.Helper()
	cfg := params.Default()
	cfg.COFS.MetadataShards = shards
	cfg.COFS.AttrLease = 30 * time.Second
	cfg.FUSE.EntryTimeout = time.Nanosecond
	tb := cluster.New(seed, 2, cfg)
	d := core.Deploy(tb, nil)
	tb.Run()
	return tb, d
}

// step runs fn as one drained simulation phase: everything fn does
// happens-before the next step.
func step(tb *cluster.Testbed, name string, fn func(p *sim.Proc)) {
	tb.Env.Spawn(name, fn)
	tb.Run()
}

func TestLeaseCacheCrossNodeCoherence(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			ctxA, ctxB := cluster.Ctx(0, 1), cluster.Ctx(1, 1)

			t.Run("chmod", func(t *testing.T) {
				tb, d := coherenceRig(t, 100+int64(shards), shards)
				A, B := d.Mounts[0], d.Mounts[1]
				step(tb, "setup", func(p *sim.Proc) {
					if err := A.Mkdir(p, ctxA, "/d", 0777); err != nil {
						t.Error(err)
						return
					}
					f, err := A.Create(p, ctxA, "/d/f", 0644)
					if err != nil {
						t.Error(err)
						return
					}
					f.Close(p)
					A.Stat(p, ctxA, "/d/f") // A caches the attr under lease
				})
				step(tb, "mutate", func(p *sim.Proc) {
					if _, err := B.Chmod(p, ctxB, "/d/f", 0600); err != nil {
						t.Error(err)
					}
				})
				step(tb, "verify", func(p *sim.Proc) {
					attr, err := A.Stat(p, ctxA, "/d/f")
					if err != nil || attr.Mode != 0600 {
						t.Errorf("stale mode after cross-node chmod: %o, %v", attr.Mode, err)
					}
				})
				if err := d.Service.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})

			t.Run("writeback-size", func(t *testing.T) {
				tb, d := coherenceRig(t, 200+int64(shards), shards)
				A, B := d.Mounts[0], d.Mounts[1]
				step(tb, "setup", func(p *sim.Proc) {
					f, err := A.Create(p, ctxA, "/f", 0666)
					if err != nil {
						t.Error(err)
						return
					}
					f.Close(p)
					A.Stat(p, ctxA, "/f")
				})
				step(tb, "mutate", func(p *sim.Proc) {
					g, err := B.Open(p, ctxB, "/f", vfs.OpenWrite)
					if err != nil {
						t.Error(err)
						return
					}
					g.WriteAt(p, 0, 777)
					g.Close(p)
				})
				step(tb, "verify", func(p *sim.Proc) {
					attr, err := A.Stat(p, ctxA, "/f")
					if err != nil || attr.Size != 777 {
						t.Errorf("stale size after cross-node write-back: %d, %v", attr.Size, err)
					}
				})
			})

			t.Run("rename", func(t *testing.T) {
				tb, d := coherenceRig(t, 300+int64(shards), shards)
				A, B := d.Mounts[0], d.Mounts[1]
				var ino vfs.Ino
				step(tb, "setup", func(p *sim.Proc) {
					if err := A.Mkdir(p, ctxA, "/d", 0777); err != nil {
						t.Error(err)
						return
					}
					f, err := A.Create(p, ctxA, "/d/f", 0644)
					if err != nil {
						t.Error(err)
						return
					}
					f.Close(p)
					attr, _ := A.Stat(p, ctxA, "/d/f")
					ino = attr.Ino
				})
				step(tb, "mutate", func(p *sim.Proc) {
					if err := B.Rename(p, ctxB, "/d/f", "/d/g"); err != nil {
						t.Error(err)
					}
				})
				step(tb, "verify", func(p *sim.Proc) {
					if _, err := A.Stat(p, ctxA, "/d/f"); err != vfs.ErrNotExist {
						t.Errorf("renamed-away name still resolves on A: %v", err)
					}
					attr, err := A.Stat(p, ctxA, "/d/g")
					if err != nil || attr.Ino != ino {
						t.Errorf("renamed-in name wrong on A: %+v, %v", attr, err)
					}
				})
				if err := d.Service.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})

			t.Run("remove", func(t *testing.T) {
				tb, d := coherenceRig(t, 400+int64(shards), shards)
				A, B := d.Mounts[0], d.Mounts[1]
				step(tb, "setup", func(p *sim.Proc) {
					if err := A.Mkdir(p, ctxA, "/d", 0777); err != nil {
						t.Error(err)
						return
					}
					f, err := A.Create(p, ctxA, "/d/f", 0644)
					if err != nil {
						t.Error(err)
						return
					}
					f.Close(p)
					A.Stat(p, ctxA, "/d/f")
				})
				step(tb, "mutate", func(p *sim.Proc) {
					if err := B.Unlink(p, ctxB, "/d/f"); err != nil {
						t.Error(err)
					}
				})
				step(tb, "verify", func(p *sim.Proc) {
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
				})
				if err := d.Service.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})

			t.Run("negative-dentry", func(t *testing.T) {
				tb, d := coherenceRig(t, 500+int64(shards), shards)
				A, B := d.Mounts[0], d.Mounts[1]
				step(tb, "setup", func(p *sim.Proc) {
					if err := A.Mkdir(p, ctxA, "/d", 0777); err != nil {
						t.Error(err)
						return
					}
					// A caches the miss as a negative dentry.
					if _, err := A.Stat(p, ctxA, "/d/nope"); err != vfs.ErrNotExist {
						t.Errorf("expected ENOENT, got %v", err)
					}
				})
				step(tb, "mutate", func(p *sim.Proc) {
					f, err := B.Create(p, ctxB, "/d/nope", 0640)
					if err != nil {
						t.Error(err)
						return
					}
					f.Close(p)
				})
				step(tb, "verify", func(p *sim.Proc) {
					attr, err := A.Stat(p, ctxA, "/d/nope")
					if err != nil || attr.Mode != 0640 {
						t.Errorf("negative dentry survived cross-node create: %+v, %v", attr, err)
					}
				})
			})

			t.Run("readdir-fill-then-chmod", func(t *testing.T) {
				tb, d := coherenceRig(t, 600+int64(shards), shards)
				A, B := d.Mounts[0], d.Mounts[1]
				step(tb, "setup", func(p *sim.Proc) {
					if err := B.Mkdir(p, ctxB, "/d", 0777); err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < 4; i++ {
						f, err := B.Create(p, ctxB, fmt.Sprintf("/d/f%d", i), 0644)
						if err != nil {
							t.Error(err)
							return
						}
						f.Close(p)
					}
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
				step(tb, "mutate", func(p *sim.Proc) {
					if _, err := B.Chmod(p, ctxB, "/d/f2", 0600); err != nil {
						t.Error(err)
					}
				})
				step(tb, "verify", func(p *sim.Proc) {
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
				tb, d := coherenceRig(t, 800+int64(shards), shards)
				A, B := d.Mounts[0], d.Mounts[1]
				oracle := vfs.NewMount(vfs.NewMemFS(), params.FUSEParams{})
				// The rename partner of /d: a directory whose dentries live on
				// another shard whenever there is one.
				sm := core.ShardMap{Shards: shards}
				other := "/o0"
				for i := 0; shards > 1 && sm.DirTarget(core.RootID, other[1:]) == sm.DirTarget(core.RootID, "d"); i++ {
					other = fmt.Sprintf("/o%d", i)
				}
				// on applies one mutation to B and to the oracle alike.
				on := func(p *sim.Proc, fn func(m *vfs.Mount) error) {
					for _, m := range []*vfs.Mount{B, oracle} {
						if err := fn(m); err != nil {
							t.Error(err)
						}
					}
				}
				step(tb, "setup", func(p *sim.Proc) {
					on(p, func(m *vfs.Mount) error { return m.Mkdir(p, ctxB, "/d", 0777) })
					on(p, func(m *vfs.Mount) error { return m.Mkdir(p, ctxB, other, 0777) })
					for _, f := range []string{"/d/f0", "/d/f1", "/d/f2", "/d/f3", other + "/x"} {
						on(p, func(m *vfs.Mount) error {
							h, err := m.Create(p, ctxB, f, 0644)
							if err == nil {
								err = h.Close(p)
							}
							return err
						})
					}
				})
				if shards > 1 {
					var dAttr, oAttr vfs.Attr
					step(tb, "placement", func(p *sim.Proc) {
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
					step(tb, "list", func(p *sim.Proc) {
						want, err := oracle.Readdir(p, ctxB, "/d")
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
					fn   func(p *sim.Proc, m *vfs.Mount) error
				}{
					{"create", func(p *sim.Proc, m *vfs.Mount) error {
						h, err := m.Create(p, ctxB, "/d/new", 0644)
						if err == nil {
							err = h.Close(p)
						}
						return err
					}},
					{"unlink", func(p *sim.Proc, m *vfs.Mount) error { return m.Unlink(p, ctxB, "/d/f0") }},
					{"mkdir", func(p *sim.Proc, m *vfs.Mount) error { return m.Mkdir(p, ctxB, "/d/sub", 0755) }},
					{"rmdir", func(p *sim.Proc, m *vfs.Mount) error { return m.Rmdir(p, ctxB, "/d/sub") }},
					{"link", func(p *sim.Proc, m *vfs.Mount) error { return m.Link(p, ctxB, "/d/f1", "/d/hard") }},
					{"rename out", func(p *sim.Proc, m *vfs.Mount) error { return m.Rename(p, ctxB, "/d/f2", other+"/f2") }},
					{"rename in", func(p *sim.Proc, m *vfs.Mount) error { return m.Rename(p, ctxB, other+"/x", "/d/x") }},
				} {
					step(tb, m.what, func(p *sim.Proc) { on(p, func(mt *vfs.Mount) error { return m.fn(p, mt) }) })
					listTwice(m.what, 1)
				}
				// A child's attributes are not the listing: it stays cached.
				step(tb, "chmod", func(p *sim.Proc) {
					on(p, func(m *vfs.Mount) error { _, err := m.Chmod(p, ctxB, "/d/f3", 0600); return err })
				})
				listTwice("chmod of a child", 2)
				if err := d.Service.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})

			t.Run("link-nlink", func(t *testing.T) {
				tb, d := coherenceRig(t, 700+int64(shards), shards)
				A, B := d.Mounts[0], d.Mounts[1]
				step(tb, "setup", func(p *sim.Proc) {
					f, err := A.Create(p, ctxA, "/x", 0644)
					if err != nil {
						t.Error(err)
						return
					}
					f.Close(p)
					A.Stat(p, ctxA, "/x")
				})
				step(tb, "mutate", func(p *sim.Proc) {
					if err := B.Link(p, ctxB, "/x", "/y"); err != nil {
						t.Error(err)
					}
				})
				step(tb, "verify", func(p *sim.Proc) {
					attr, err := A.Stat(p, ctxA, "/x")
					if err != nil || attr.Nlink != 2 {
						t.Errorf("stale nlink after cross-node link: %d, %v", attr.Nlink, err)
					}
				})
				if err := d.Service.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestLeaseCacheActuallyServes guards the coherence tests against
// vacuity: with leases on and no interleaved mutation, a repeated stat
// must be served from the client cache (no service round trip), so the
// cross-node tests above really do race a populated cache.
func TestLeaseCacheActuallyServes(t *testing.T) {
	tb, d := coherenceRig(t, 42, 1)
	A := d.Mounts[0]
	ctxA := cluster.Ctx(0, 1)
	step(tb, "setup", func(p *sim.Proc) {
		if err := A.Mkdir(p, ctxA, "/d", 0777); err != nil {
			t.Error(err)
			return
		}
		f, err := A.Create(p, ctxA, "/d/f", 0644)
		if err != nil {
			t.Error(err)
			return
		}
		f.Close(p)
		A.Stat(p, ctxA, "/d/f")
	})
	before := d.FSs[0].Stats.ServiceOps
	step(tb, "restat", func(p *sim.Proc) {
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
	tb, d := coherenceRig(t, 43, 2)
	A, B := d.Mounts[0], d.Mounts[1]
	ctxA, ctxB := cluster.Ctx(0, 1), cluster.Ctx(1, 1)
	step(tb, "setup", func(p *sim.Proc) {
		f, err := A.Create(p, ctxA, "/f", 0666)
		if err != nil {
			t.Error(err)
			return
		}
		f.Close(p)
		A.Stat(p, ctxA, "/f")
	})
	step(tb, "mutate", func(p *sim.Proc) {
		if _, err := B.Chmod(p, ctxB, "/f", 0600); err != nil {
			t.Error(err)
		}
	})
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
			cfg := params.Default()
			cfg.COFS.MetadataShards = shards
			cfg.COFS.AttrLease = 30 * time.Second
			cfg.FUSE.EntryTimeout = time.Nanosecond
			tb := cluster.New(900+int64(shards), 4, cfg)
			d := core.Deploy(tb, nil)
			step(tb, "setup", func(p *sim.Proc) {
				for _, dir := range []string{"/w", "/v"} {
					if err := d.Mounts[0].Mkdir(p, cluster.Ctx(0, 1), dir, 0777); err != nil {
						t.Error(err)
					}
				}
			})
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
