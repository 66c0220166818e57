package core_test

import (
	"fmt"
	"strings"
	"testing"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// These tests pin the crash-consistency half of online resharding
// (docs/resharding.md, "Shard lifecycle & crash consistency"): the
// WAL-handoff protocol must make Crash/Recover well-defined at *any*
// instant of a grow or shrink. The sweep uses the step hook
// (OnReshardStep) to stop the coordinator at every observable point of
// the migration — batch starts, post-import, post-install, post-delete
// — crashes the plane there with the async flush windows still open,
// recovers, and asserts the namespace is exactly the oracle (the tree
// the test built, fully durable before the reshard began), fsck-clean
// against the underlying FS, with the migration resumed to settlement
// and any drained shards retired.

// crashRig deploys the sweep's plane: small batches so one migration
// crosses several batch boundaries, the lease cache on and the kernel's
// entry cache out of the way, like every reshard test.
func crashRig(t *testing.T, seed int64, shards int) (*cluster.Testbed, *core.Deployment) {
	t.Helper()
	return core.Rig(t, seed, 2, core.Shards(shards), core.Leases, core.NoKernelEntries, func(cfg *params.Config) {
		cfg.COFS.ReshardBatchRows = 4
	})
}

// countReshardSteps probes one migration with a counting hook: the
// returned slice maps hook sequence numbers to the points they fire at,
// so the sweep (same seed, same tree) knows every instant it can crash
// at. The probe's migration runs to completion.
func countReshardSteps(t *testing.T, seed int64, from, to, dirs, files int) []core.ReshardPoint {
	t.Helper()
	tb, d := crashRig(t, seed, from)
	buildTree(t, tb, d, dirs, files)
	var points []core.ReshardPoint
	d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
		points = append(points, at)
		return false
	})
	core.Drained(tb, "probe-reshard", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, to); err != nil {
			t.Errorf("probe reshard: %v", err)
		}
	})
	if len(points) == 0 {
		t.Fatal("probe migration fired no step points")
	}
	return points
}

// hostNames returns the names currently on the testbed network.
func hostNames(tb *cluster.Testbed) map[string]bool {
	names := make(map[string]bool)
	for _, h := range tb.Net.Hosts() {
		names[h.Name] = true
	}
	return names
}

// assertRecovered asserts the full post-recovery contract: settled map
// at the target count, invariants, the complete oracle namespace from
// every node, an fsck-clean plane against the underlying FS, retirement
// of every drained shard, and a serving allocator on every survivor.
func assertRecovered(t *testing.T, tb *cluster.Testbed, d *core.Deployment, paths []string, target int) {
	t.Helper()
	if d.Service.Maps.Current().Migrating() {
		t.Fatal("map still migrating after recovery")
	}
	if got := d.Service.ServingShards(); got != target {
		t.Fatalf("serving %d shards after recovery, want %d", got, target)
	}
	if got := len(d.Service.Shards()); got != target {
		t.Fatalf("plane holds %d shards after recovery, want %d (drained shards must retire)", got, target)
	}
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	verifyAll(t, tb, d, paths)
	var rep *core.FsckReport
	core.Drained(tb, "fsck", func(p *sim.Proc) {
		rep = core.Fsck(p, d.Service, tb.Mounts[0])
	})
	// The whole tree was durable before the migration began and the
	// handoff protocol must not lose (or resurrect) a row, so unlike a
	// crash mid-workload there is no lost window: not even orphans are
	// tolerated.
	if !rep.OK() {
		t.Fatalf("fsck after recovery:\n%s", rep)
	}
	// The recovered plane serves new work with fresh ids on every node.
	core.Drained(tb, "post-create", func(p *sim.Proc) {
		for n, m := range d.Mounts {
			ctx := cluster.Ctx(n, 1)
			f, err := m.Create(p, ctx, fmt.Sprintf("/d000/post-%d", n), 0644)
			if err != nil {
				t.Errorf("node %d: create after recovery: %v", n, err)
				return
			}
			f.Close(p)
		}
	})
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatalf("invariants after post-recovery creates: %v", err)
	}
}

// TestReshardCrashReplay is the offset-swept crash-injection replay: it
// crashes the plane at every batch boundary and mid-batch point of a
// 2→4 grow and a 4→2 shrink, with the flush windows open (the source
// deletes of the interrupted batch may be unflushed), and requires
// recovery to the exact oracle every time.
func TestReshardCrashReplay(t *testing.T) {
	// The shrink needs a wider tree: hash placement must populate the
	// drained shards' stride classes or there is nothing to move back.
	cases := []struct {
		name        string
		from, to    int
		dirs, files int
	}{
		{"grow-2to4", 2, 4, 8, 24},
		{"shrink-4to2", 4, 2, 16, 48},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seed := 7100 + int64(tc.from*10+tc.to)
			points := countReshardSteps(t, seed, tc.from, tc.to, tc.dirs, tc.files)
			t.Logf("%s: %d crash points", tc.name, len(points))
			for k := range points {
				k := k
				t.Run(fmt.Sprintf("at-%02d-%s", k, points[k]), func(t *testing.T) {
					tb, d := crashRig(t, seed, tc.from)
					paths := buildTree(t, tb, d, tc.dirs, tc.files)
					d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
						return seq == k
					})
					core.Drained(tb, "reshard-crash-recover", func(p *sim.Proc) {
						if err := d.Service.Reshard(p, tc.to); err != core.ErrReshardInterrupted {
							t.Errorf("reshard returned %v, want ErrReshardInterrupted", err)
							return
						}
						// Crash immediately — no drain, so commits inside
						// the async flush window (notably the interrupted
						// batch's source deletes) are genuinely lost.
						d.Service.Crash()
						d.Service.Recover(p)
						d.Service.AdoptIDCounter()
					})
					assertRecovered(t, tb, d, paths, tc.to)
					if tc.to < tc.from {
						names := hostNames(tb)
						for i := tc.to; i < tc.from; i++ {
							if names[fmt.Sprintf("cofs-mds%d", i)] {
								t.Errorf("retired shard host cofs-mds%d still on the testbed", i)
							}
						}
						if got := d.Service.ReshardStats().Retired; got != int64(tc.from-tc.to) {
							t.Errorf("Retired = %d, want %d", got, tc.from-tc.to)
						}
					}
				})
			}
		})
	}
}

// TestReshardWALHandoffAccounting pins the exactly-once WAL accounting:
// at every pre-delete instant of a migration the plane's owned log
// length is unchanged (the handed-off records count at the source until
// the epoch installs, then at the target and no longer at the source —
// never both), and after settling the log grew by exactly one delete
// record per handed-off record, while the raw per-shard sum shows the
// transferred history the owned view nets out.
func TestReshardWALHandoffAccounting(t *testing.T) {
	tb, d := crashRig(t, 7300, 2)
	buildTree(t, tb, d, 4, 20)
	core.Drained(tb, "settle-log", func(p *sim.Proc) {})
	w0 := d.Service.WALLen()
	if w0 == 0 {
		t.Fatal("empty WAL after build")
	}
	stable := w0
	d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
		switch at {
		case core.ReshardImported, core.ReshardInstalled:
			if got := d.Service.WALLen(); got != stable {
				t.Errorf("step %d (%s): owned WALLen %d, want %d (handed-off records double- or under-counted)", seq, at, got, stable)
			}
		default:
			stable = d.Service.WALLen()
		}
		return false
	})
	core.Drained(tb, "reshard", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, 4); err != nil {
			t.Errorf("reshard: %v", err)
		}
	})
	rs := d.Service.ReshardStats()
	if rs.HandoffRecords == 0 {
		t.Fatal("migration shipped no handoff records")
	}
	if rs.HandoffRecords != rs.RowsMoved {
		t.Errorf("HandoffRecords = %d, RowsMoved = %d; the cursor must cover every moved row exactly once", rs.HandoffRecords, rs.RowsMoved)
	}
	if got, want := d.Service.WALLen(), w0+int(rs.HandoffRecords); got != want {
		t.Errorf("owned WALLen after settle = %d, want %d (w0=%d + one delete per handed-off record)", got, want, w0)
	}
	var raw int
	for _, s := range d.Service.Shards() {
		raw += s.DB.WALLen()
	}
	if want := w0 + 2*int(rs.HandoffRecords); raw != want {
		t.Errorf("raw WAL sum after settle = %d, want %d (imports + deletes on top of w0=%d)", raw, want, w0)
	}
	// Checkpoint compacts the logs and re-zeroes the bookkeeping: the
	// owned and raw views must agree again.
	core.Drained(tb, "checkpoint", func(p *sim.Proc) {
		d.Service.Checkpoint(p)
	})
	raw = 0
	for _, s := range d.Service.Shards() {
		raw += s.DB.WALLen()
	}
	if got := d.Service.WALLen(); got != raw {
		t.Errorf("owned WALLen %d != raw %d after checkpoint", got, raw)
	}
}

// TestShrinkRetiresDrainedShards pins the full drained-shard lifecycle
// of a settled shrink: sessions hold no channels to retired shards (and
// the transport counters stay cumulative across the drop), the hosts
// leave the testbed, and the mds.reshard-retired / -wal-handoff
// counters surface the work.
func TestShrinkRetiresDrainedShards(t *testing.T) {
	tb, d := crashRig(t, 7400, 4)
	paths := buildTree(t, tb, d, 6, 30)
	before := d.Counters().Get("rpc.client.calls")
	core.Drained(tb, "reshard", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, 2); err != nil {
			t.Fatalf("reshard: %v", err)
		}
	})
	if got := len(d.Service.Shards()); got != 2 {
		t.Fatalf("plane holds %d shards after shrink, want 2", got)
	}
	names := hostNames(tb)
	for name := range names {
		if strings.HasPrefix(name, "cofs-mds") && (name == "cofs-mds2" || name == "cofs-mds3") {
			t.Errorf("retired host %s still on the testbed", name)
		}
	}
	verifyAll(t, tb, d, paths)
	after := d.Counters()
	if got := after.Get("rpc.client.calls"); got < before {
		t.Errorf("rpc.client.calls dropped from %d to %d across retirement; retired channels must stay counted", before, got)
	}
	if got := after.Get("mds.reshard-retired"); got != 2 {
		t.Errorf("mds.reshard-retired = %d, want 2", got)
	}
	if after.Get("mds.reshard-wal-handoff") == 0 {
		t.Error("mds.reshard-wal-handoff = 0 after a shrink that moved rows")
	}
}
