package core_test

import (
	"fmt"
	"strings"
	"testing"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
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

// countReshardSteps probes one migration of a fresh rig with a counting
// hook: it builds the tree, reshards to to and returns the points the
// hook fired at, by sequence number, so a run on the same rig and tree
// knows every instant it can stop at. The probe's migration runs to
// completion.
func countReshardSteps(t *testing.T, tb *cluster.Testbed, d *core.Deployment, to, dirs, files int) []core.ReshardPoint {
	t.Helper()
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

// reshardUntil reshards d to to, stops the migration at its step k, runs
// die in the reshard's process the moment the step returns, and drains.
func reshardUntil(t *testing.T, tb *cluster.Testbed, d *core.Deployment, to, k int, die func(p *sim.Proc)) {
	t.Helper()
	d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool { return seq == k })
	core.Drained(tb, "reshard-interrupt", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, to); err != core.ErrReshardInterrupted {
			t.Errorf("reshard returned %v, want ErrReshardInterrupted", err)
			return
		}
		die(p)
	})
}

// stepCase is one migration of the step sweep. The shrink needs a wider
// tree: hash placement must populate the drained shards' stride classes
// or there is nothing to move back.
type stepCase struct {
	name        string
	from, to    int
	dirs, files int
}

// sweepReshardSteps runs a 2→4 grow and a 4→2 shrink, seeded seedBase
// plus 10·from+to, and stops each at every step point of its migration,
// one subtest at-<k>-<point> per point: it deploys with rig, builds the
// tree, stops the migration at step k with die (reshardUntil), and
// holds the plane to recovered afterwards.
func sweepReshardSteps(t *testing.T, seedBase int64, rig func(t *testing.T, seed int64, shards int) (*cluster.Testbed, *core.Deployment),
	die func(p *sim.Proc, d *core.Deployment), recovered func(t *testing.T, tb *cluster.Testbed, d *core.Deployment, paths []string, tc stepCase)) {
	for _, tc := range []stepCase{{"grow-2to4", 2, 4, 8, 24}, {"shrink-4to2", 4, 2, 16, 48}} {
		t.Run(tc.name, func(t *testing.T) {
			seed := seedBase + int64(tc.from*10+tc.to)
			tb, d := rig(t, seed, tc.from)
			points := countReshardSteps(t, tb, d, tc.to, tc.dirs, tc.files)
			t.Logf("%s: %d step points", tc.name, len(points))
			for k := range points {
				t.Run(fmt.Sprintf("at-%02d-%s", k, points[k]), func(t *testing.T) {
					tb, d := rig(t, seed, tc.from)
					paths := buildTree(t, tb, d, tc.dirs, tc.files)
					reshardUntil(t, tb, d, tc.to, k, func(p *sim.Proc) { die(p, d) })
					recovered(t, tb, d, paths, tc)
				})
			}
		})
	}
}

// assertRetired fails t if a host named by format and a drained shard's
// index is still on the testbed after tc's shrink.
func assertRetired(t *testing.T, tb *cluster.Testbed, format string, tc stepCase) {
	t.Helper()
	names := hostNames(tb)
	for i := tc.to; i < tc.from; i++ {
		if name := fmt.Sprintf(format, i); names[name] {
			t.Errorf("retired host %s still on the testbed", name)
		}
	}
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
	var creates []trace.Op
	for n := range d.Mounts {
		creates = append(creates, core.Create(n, fmt.Sprintf("/d000/post-%d", n), 0644))
	}
	core.Play(t, tb, d, creates...)
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
	sweepReshardSteps(t, 7100, crashRig, func(p *sim.Proc, d *core.Deployment) {
		// Crash immediately — no drain, so commits inside the async
		// flush window (notably the interrupted batch's source deletes)
		// are genuinely lost.
		d.Service.Crash()
		d.Service.Recover(p)
		d.Service.AdoptIDCounter()
	}, func(t *testing.T, tb *cluster.Testbed, d *core.Deployment, paths []string, tc stepCase) {
		assertRecovered(t, tb, d, paths, tc.to)
		if tc.to < tc.from {
			assertRetired(t, tb, "cofs-mds%d", tc)
			if got := d.Service.ReshardStats().Retired; got != int64(tc.from-tc.to) {
				t.Errorf("Retired = %d, want %d", got, tc.from-tc.to)
			}
		}
	})
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
