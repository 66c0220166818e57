package core_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// These tests pin the online-resharding subsystem (internal/reshard,
// core/reshard.go, docs/resharding.md) from every side the acceptance
// contract names:
//
//   - Grow and shrink move exactly the planned rows, preserve every
//     plane invariant, balance the target shards, and leave drained
//     shards empty.
//   - Under a concurrent storm with the coherent lease cache on, no
//     client ever observes a stale or missing row, at 1→2 and 2→4.
//   - The offset-swept rename-vs-migration replay proves the batch's
//     Exclusive row locks serialize a migration against a conflicting
//     two-phase mutation of the same rows at every interleaving.
//   - With Reshard never called, the dormant machinery charges nothing:
//     virtual end time and message count stay on absolute pins, the
//     figures static routing produced.
//   - After a reshard settles, steady-state latency matches a fresh
//     deploy at the target shard count.

// buildTree creates dirs directories with files files spread over them
// from node 0, each written with 512 bytes, and returns every file path.
func buildTree(t *testing.T, tb *cluster.Testbed, d *core.Deployment, dirs, files int) []string {
	t.Helper()
	var ops []trace.Op
	for i := 0; i < dirs; i++ {
		ops = append(ops, core.Mkdir(0, fmt.Sprintf("/d%03d", i), 0777))
	}
	var paths []string
	for i := 0; i < files; i++ {
		paths = append(paths, fmt.Sprintf("/d%03d/f%04d", i%dirs, i))
		ops = append(ops, core.Write(0, paths[i], 512))
	}
	core.Play(t, tb, d, ops...)
	return paths
}

// verifyAll stats every path from every node and fails on any missing
// or stale row.
func verifyAll(t *testing.T, tb *cluster.Testbed, d *core.Deployment, paths []string) {
	t.Helper()
	for n := range d.Mounts {
		for i, attr := range core.Attrs(t, tb, d, n, paths...) {
			if attr.Size != 512 {
				t.Fatalf("node %d: stat %s: stale size %d", n, paths[i], attr.Size)
			}
		}
	}
}

// listWhole lists dir with attributes through node's session and
// fails the test unless the listing is whole: exactly want entries, each
// carrying its own attributes (an entry with zero attributes is a live
// row the service reported attribute-less). With downOK a listing may
// instead fail with ErrNotExist — what a crashed plane answers until it
// has recovered. Reports whether a whole listing came back.
func listWhole(t *testing.T, p *sim.Proc, d *core.Deployment, node int, dir vfs.Ino, want int, downOK bool) bool {
	t.Helper()
	ents, attrs, err := d.Service.ReaddirPlus(p, d.FSs[node].Session(), cluster.Ctx(node, 7), dir)
	if err != nil {
		if !downOK || err != vfs.ErrNotExist {
			t.Errorf("node %d: listing at %v: %v", node, p.Now(), err)
		}
		return false
	}
	if len(ents) != want {
		t.Errorf("node %d: partial listing at %v: %d entries, want %d", node, p.Now(), len(ents), want)
	}
	for i, e := range ents {
		if attrs[i].Ino != e.Ino {
			t.Errorf("node %d: listing at %v reports live row %q without attributes", node, p.Now(), e.Name)
		}
	}
	return true
}

func TestReshardGrow(t *testing.T) {
	cases := []struct{ from, to int }{{1, 2}, {2, 4}, {1, 4}}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			tb, d := core.Rig(t, 500+int64(tc.from*10+tc.to), 2, core.Shards(tc.from), core.Leases, core.NoKernelEntries)
			paths := buildTree(t, tb, d, 16, 128)
			core.Drained(tb, "reshard", func(p *sim.Proc) {
				if err := d.Service.Reshard(p, tc.to); err != nil {
					t.Errorf("reshard: %v", err)
				}
			})
			if err := d.Service.CheckInvariants(); err != nil {
				t.Fatalf("invariants after grow: %v", err)
			}
			if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
				t.Fatalf("cache coherence after grow: %v", err)
			}
			counts := d.Service.ShardCounts()
			if len(counts) != tc.to {
				t.Fatalf("plane has %d shards, want %d", len(counts), tc.to)
			}
			for i, n := range counts {
				if n == 0 {
					t.Fatalf("shard %d empty after grow: %v", i, counts)
				}
			}
			rs := d.Service.ReshardStats()
			if rs.GroupsMoved == 0 || rs.Epochs < 3 {
				t.Fatalf("no migration happened: %+v", rs)
			}
			verifyAll(t, tb, d, paths)
			// The plane keeps absorbing new work with fresh ids on every
			// shard's new stride.
			var post []trace.Op
			for i := 0; i < 32; i++ {
				post = append(post, core.Create(0, fmt.Sprintf("/d000/post%03d", i), 0644))
			}
			core.Play(t, tb, d, post...)
			if err := d.Service.CheckInvariants(); err != nil {
				t.Fatalf("invariants after post-grow creates: %v", err)
			}
		})
	}
}

func TestReshardShrink(t *testing.T) {
	tb, d := core.Rig(t, 600, 2, core.Shards(4), core.Leases, core.NoKernelEntries)
	paths := buildTree(t, tb, d, 16, 128)
	core.Drained(tb, "reshard", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, 2); err != nil {
			t.Errorf("shrink: %v", err)
		}
	})
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatalf("invariants after shrink: %v", err)
	}
	counts := d.Service.ShardCounts()
	for i := 2; i < len(counts); i++ {
		if counts[i] != 0 {
			t.Fatalf("drained shard %d still holds %d rows", i, counts[i])
		}
	}
	verifyAll(t, tb, d, paths)
	// Creates under directories still work everywhere, including ones
	// whose rows were drained off shards 2 and 3.
	var post []trace.Op
	for i := 0; i < 16; i++ {
		post = append(post, core.Create(1, fmt.Sprintf("/d%03d/post", i), 0644))
	}
	core.Play(t, tb, d, post...)
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatalf("invariants after post-shrink creates: %v", err)
	}
}

// TestReshardUnderStorm is the acceptance battery: a create/stat/
// rename/remove storm runs on every node while the plane reshards
// mid-storm (1→2 and 2→4), with the lease cache coherent throughout.
// After the dust settles every surviving file must resolve with exact
// attributes from every node, the plane invariants and the cache
// coherence contract must hold, and the storm must actually have raced
// the migration (rows moved while requests were in flight).
func TestReshardUnderStorm(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{1, 2}, {2, 4}} {
		tc := tc
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			const nodes, filesPerNode, prebuilt = 4, 96, 64
			tb, d := core.Rig(t, 700+int64(tc.from), nodes, core.Shards(tc.from), core.Leases, core.NoKernelEntries)
			// A directory nobody mutates, holding files (rows beside its
			// dentries) and subdirectories (rows placed on other shards):
			// listers read it throughout the migration, and every listing
			// must be whole whichever shard holds which row at the time.
			const stillFiles, stillDirs = 24, 6
			var setup []trace.Op
			for i := 0; i < stillFiles+stillDirs; i++ {
				if i < stillDirs {
					setup = append(setup, core.Mkdir(0, fmt.Sprintf("/still/sub%02d", i), 0777))
				} else {
					setup = append(setup, core.Create(0, fmt.Sprintf("/still/f%02d", i), 0644))
				}
			}
			// A pre-existing population per directory, so the migration
			// has real batches to move while the storm reads and rewrites
			// the same namespace.
			for n := 0; n < nodes; n++ {
				setup = append(setup, core.Dir(0, fmt.Sprintf("/work%d", n), 0777, prebuilt, "old%04d", 0)...)
			}
			core.Play(t, tb, d, setup...)
			still := core.Ino(t, tb, d, "/still")
			// The storm: each node creates, stats, renames and removes in
			// its own directory, with cross-node stats of node 0's files.
			for n := 0; n < nodes; n++ {
				n := n
				tb.Env.Spawn(fmt.Sprintf("storm%d", n), func(p *sim.Proc) {
					m := d.Mounts[n]
					ctx := cluster.Ctx(n, 1)
					for i := 0; i < filesPerNode; i++ {
						name := fmt.Sprintf("/work%d/f%04d", n, i)
						f, err := m.Create(p, ctx, name, 0644)
						if err != nil {
							t.Errorf("storm create %s: %v", name, err)
							return
						}
						f.Close(p)
						if _, err := m.Stat(p, ctx, name); err != nil {
							t.Errorf("storm stat %s: %v", name, err)
							return
						}
						switch i % 4 {
						case 1:
							if err := m.Rename(p, ctx, name, fmt.Sprintf("/work%d/r%04d", n, i)); err != nil {
								t.Errorf("storm rename %s: %v", name, err)
								return
							}
						case 3:
							if err := m.Unlink(p, ctx, name); err != nil {
								t.Errorf("storm unlink %s: %v", name, err)
								return
							}
						}
						if i%8 == 5 {
							// Cross-node read of another node's namespace.
							m.Stat(p, ctx, fmt.Sprintf("/work0/f%04d", i))
						}
						// Reads and removes of the pre-existing population
						// race the batches migrating it.
						if i < prebuilt {
							if i%6 == 2 {
								if err := m.Unlink(p, ctx, fmt.Sprintf("/work%d/old%04d", n, i)); err != nil {
									t.Errorf("storm unlink old%04d: %v", i, err)
									return
								}
							} else if _, err := m.Stat(p, ctx, fmt.Sprintf("/work%d/old%04d", n, i)); err != nil {
								t.Errorf("storm stat old%04d: %v", i, err)
								return
							}
						}
					}
				})
			}
			// Mid-storm, the plane reshards.
			var reshardErr error
			resharded := false
			tb.Env.SpawnAfter("reshard", 2*time.Millisecond, func(p *sim.Proc) {
				reshardErr = d.Service.Reshard(p, tc.to)
				resharded = true
			})
			listings := 0
			for _, n := range []int{1, nodes - 1} {
				n := n
				tb.Env.Spawn(fmt.Sprintf("lister%d", n), func(p *sim.Proc) {
					for !resharded {
						listWhole(t, p, d, n, still, stillFiles+stillDirs, false)
						listings++
					}
				})
			}
			tb.Run()
			if reshardErr != nil {
				t.Fatalf("mid-storm reshard: %v", reshardErr)
			}
			if listings < 8 {
				t.Fatalf("only %d listings raced the migration", listings)
			}
			if err := d.Service.CheckInvariants(); err != nil {
				t.Fatalf("invariants after storm+reshard: %v", err)
			}
			if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
				t.Fatalf("cache coherence after storm+reshard: %v", err)
			}
			rs := d.Service.ReshardStats()
			if rs.GroupsMoved == 0 {
				t.Fatal("storm reshard moved nothing: trigger fired after the storm?")
			}
			// Every file the storm left behind must resolve from every
			// node; renamed names must resolve, removed ones must not.
			var resolve, gone []trace.Op
			for n := 0; n < nodes; n++ {
				from := nodes - 1 - n
				for i := 0; i < prebuilt; i++ {
					op := core.Stat(from, fmt.Sprintf("/work%d/old%04d", n, i))
					if i%6 == 2 {
						gone = append(gone, op)
					} else {
						resolve = append(resolve, op)
					}
				}
				for i := 0; i < filesPerNode; i++ {
					switch i % 4 {
					case 1:
						resolve = append(resolve, core.Stat(from, fmt.Sprintf("/work%d/r%04d", n, i)))
					case 3:
						gone = append(gone, core.Stat(from, fmt.Sprintf("/work%d/f%04d", n, i)))
					default:
						resolve = append(resolve, core.Stat(from, fmt.Sprintf("/work%d/f%04d", n, i)))
					}
				}
			}
			core.Play(t, tb, d, resolve...)
			core.Expect(t, tb, d, vfs.ErrNotExist, gone...)
		})
	}
}

// TestReshardVsRenameInterleaving sweeps a cross-directory rename of a
// row against the migration moving that row's groups, across the whole
// migration window: at every offset the rename must either land before
// the move (and be migrated) or after it (and run at the new owner) —
// never corrupt the plane, never lose the file.
func TestReshardVsRenameInterleaving(t *testing.T) {
	core.Sweep(t, 150*time.Microsecond, func(delta time.Duration) {
		tb, d := core.Rig(t, 800, 2, core.Shards(2), core.Leases, core.NoKernelEntries)
		// A population large enough that the migration has real batches
		// in flight around the rename's rows.
		setup := []trace.Op{core.Mkdir(0, "/a", 0777), core.Mkdir(0, "/b", 0777)}
		for i := 0; i < 96; i++ {
			setup = append(setup, core.Create(0, fmt.Sprintf("/a/f%03d", i), 0644))
		}
		core.Play(t, tb, d, setup...)
		tb.Env.Spawn("reshard", func(p *sim.Proc) {
			if err := d.Service.Reshard(p, 4); err != nil {
				t.Errorf("reshard: %v", err)
			}
		})
		core.Play(t, tb, d, core.At(delta, core.Op(1, trace.Rename, "/a/f017", "/b/moved")))
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatalf("migration vs rename corrupted the plane: %v", err)
		}
		core.Play(t, tb, d, core.Stat(0, "/b/moved"))
		core.Expect(t, tb, d, vfs.ErrNotExist, core.Stat(0, "/a/f017"))
	})
}

// TestReshardVsCreateInterleaving sweeps Reshard's start offset across
// a single-node create loop, densely covering the window where a
// create transaction would have allocated its id (from the old stride,
// so at or below the migration's split) but not yet committed its row.
// A store transaction allocates and commits at one instant, and the
// plan scan runs at the epoch's instant, so such a row is either
// visible to the plan (and migrated) or not yet allocated (and
// newborn): at no offset may a file end up on a shard the settled map
// does not assign it, which CheckInvariants and the per-file stats pin.
func TestReshardVsCreateInterleaving(t *testing.T) {
	const files = 40
	core.Sweep(t, 123*time.Microsecond, func(delta time.Duration) {
		tb, d := core.Rig(t, 850, 2, core.Shards(2), core.Leases, core.NoKernelEntries)
		core.Play(t, tb, d, core.Mkdir(0, "/a", 0777))
		// Sleep yields even at offset 0: the creates start first at every
		// offset, so offset 0 races the reshard right behind them.
		tb.Env.Spawn("reshard", func(p *sim.Proc) {
			p.Sleep(delta)
			if err := d.Service.Reshard(p, 4); err != nil {
				t.Errorf("reshard: %v", err)
			}
		})
		creates, stats := make([]trace.Op, files), make([]trace.Op, files)
		for i := range creates {
			creates[i] = core.Create(0, fmt.Sprintf("/a/f%03d", i), 0644)
			stats[i] = core.Stat(1, creates[i].Path)
		}
		core.Play(t, tb, d, creates...)
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatalf("stranded row: %v", err)
		}
		core.Play(t, tb, d, stats...)
	})
}

// TestReshardDormantCostIdentical pins the bit-identical-figures
// guarantee: with Reshard never called, the epoch-versioned map
// machinery charges nothing, so storeWorkload (default store) lands on
// exactly the virtual clock and network message count that static
// routing produced — at one shard and at four. The figures are absolute: any drift means the
// dormant machinery (or something under it) started charging.
func TestReshardDormantCostIdentical(t *testing.T) {
	for _, tc := range []struct {
		shards int
		now    time.Duration
		msgs   int64
	}{
		{1, 209692761 * time.Nanosecond, 208},
		{4, 239913983 * time.Nanosecond, 228},
	} {
		t.Run(fmt.Sprintf("%dshards", tc.shards), func(t *testing.T) {
			if now, msgs := storeWorkload(t, "", tc.shards); now != tc.now || msgs != tc.msgs {
				t.Fatalf("dormant epoch routing is not free: (%v, %d msgs), pinned (%v, %d msgs)",
					now, msgs, tc.now, tc.msgs)
			}
		})
	}
}

// TestReshardSteadyStateMatchesFreshDeploy: after a 2→4 reshard
// settles, a stat storm must run at (close to) the latency of the same
// storm on a freshly deployed 4-shard plane — resharding leaves no
// permanent overhead behind.
func TestReshardSteadyStateMatchesFreshDeploy(t *testing.T) {
	storm := func(tb *cluster.Testbed, d *core.Deployment, paths []string) time.Duration {
		var ops []trace.Op
		for n := 0; n < 2; n++ {
			for r := 0; r < 4; r++ {
				for _, path := range paths {
					ops = append(ops, core.Stat(n, path))
				}
			}
		}
		start := tb.Env.Now()
		core.Play(t, tb, d, ops...)
		return tb.Env.Now() - start
	}
	// Resharded plane: deploy at 2, grow to 4, then measure. The cache
	// is disabled so the storm measures the service plane, not lease
	// hits.
	nocache := func(cfg *params.Config) { cfg.COFS.AttrLease = 0 }
	tb1, d1 := core.Rig(t, 900, 2, core.Shards(2), core.Leases, core.NoKernelEntries, nocache)
	paths1 := buildTree(t, tb1, d1, 16, 256)
	core.Drained(tb1, "reshard", func(p *sim.Proc) {
		if err := d1.Service.Reshard(p, 4); err != nil {
			t.Fatalf("reshard: %v", err)
		}
	})
	resharded := storm(tb1, d1, paths1)

	tb2, d2 := core.Rig(t, 900, 2, core.Shards(4), core.Leases, core.NoKernelEntries, nocache)
	paths2 := buildTree(t, tb2, d2, 16, 256)
	fresh := storm(tb2, d2, paths2)

	ratio := float64(resharded) / float64(fresh)
	if ratio > 1.15 || ratio < 0.85 {
		t.Fatalf("post-reshard steady state diverges from fresh 4-shard deploy: %v vs %v (ratio %.3f)",
			resharded, fresh, ratio)
	}
}

// TestReshardRefusals pins the guard rails: no resharding mid-flight
// resharding, and resharding to the current count is a no-op.
func TestReshardRefusals(t *testing.T) {
	tb3, d3 := core.Rig(t, 1002, 1, core.Shards(2), core.Leases, core.NoKernelEntries)
	core.Drained(tb3, "noop", func(p *sim.Proc) {
		if err := d3.Service.Reshard(p, 2); err != nil {
			t.Errorf("reshard to current count: %v", err)
		}
	})
	if rs := d3.Service.ReshardStats(); rs.Epochs != 0 {
		t.Errorf("no-op reshard installed epochs: %+v", rs)
	}

	// Two concurrent Reshards: exactly one runs, the loser is refused
	// before it can touch the plane (the latch, not Begin, decides).
	tb4, d4 := core.Rig(t, 1003, 1, core.Shards(2), core.Leases, core.NoKernelEntries)
	buildTree(t, tb4, d4, 8, 64)
	var errA, errB error
	tb4.Env.Spawn("reshardA", func(p *sim.Proc) { errA = d4.Service.Reshard(p, 4) })
	tb4.Env.Spawn("reshardB", func(p *sim.Proc) { errB = d4.Service.Reshard(p, 8) })
	tb4.Run()
	if (errA == nil) == (errB == nil) {
		t.Fatalf("concurrent reshards: want exactly one winner, got errA=%v errB=%v", errA, errB)
	}
	if err := d4.Service.CheckInvariants(); err != nil {
		t.Fatalf("invariants after racing reshards: %v", err)
	}
	want := 4
	if errA != nil {
		want = 8
	}
	if got := d4.Service.ServingShards(); got != want {
		t.Fatalf("racing reshards settled at %d shards, winner wanted %d", got, want)
	}
}
