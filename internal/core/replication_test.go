package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// TestStandbyTracksPrimary verifies WAL shipping keeps the standby's
// namespace identical to the primary's once the pipeline drains.
func TestStandbyTracksPrimary(t *testing.T) {
	tb, d := core.Rig(t, 5, 2)
	sb := core.DeployStandby(tb, d, time.Millisecond)
	tb.Run()
	core.Play(t, tb, d, append(core.Dir(0, "/out", 0777, 50, "f%02d", 4096), core.Op(0, trace.Unlink, "/out/f00", ""))...)
	mappings := 0
	d.Service.EachMapping(func(vfs.Ino, string) { mappings++ })
	if mappings != 49 {
		t.Fatalf("primary has %d mappings, want 49", mappings)
	}
	standbyMirrors(t, d, sb)
}

// TestFailoverPromotion kills the primary mid-workload, promotes the
// standby, and verifies clients continue against the promoted service:
// shipped files survive, new creates allocate fresh (non-colliding)
// file ids, and the namespace stays consistent.
func TestFailoverPromotion(t *testing.T) {
	tb, d := core.Rig(t, 9, 2)
	sb := core.DeployStandby(tb, d, time.Millisecond)
	tb.Run()
	core.Play(t, tb, d, core.Dir(0, "/ckpt", 0777, 30, "pre-%02d", 1024)...)

	// Primary dies; the deployment promotes the standby.
	d.Service.Crash()
	if lost := sb.Promote(d); lost != 0 {
		t.Logf("failover lost %d unshipped records (allowed)", lost)
	}

	// Pre-crash files are visible from node 1 through the promoted
	// service, and new creates there land in it.
	var pre []string
	var post []trace.Op
	for i := 0; i < 30; i++ {
		pre = append(pre, fmt.Sprintf("/ckpt/pre-%02d", i))
	}
	for i, attr := range core.Attrs(t, tb, d, 1, pre...) {
		if attr.Size != 1024 {
			t.Errorf("%s size = %d, want 1024", pre[i], attr.Size)
		}
	}
	for i := 0; i < 10; i++ {
		post = append(post, core.By(7, core.Write(1, fmt.Sprintf("/ckpt/post-%02d", i), 2048)))
	}
	core.Play(t, tb, d, post...)
	if n := strings.Count(core.View(t, tb, d, 1, "/ckpt"), "\n"); n != 40 {
		t.Errorf("entries after failover = %d, want 40", n)
	}
	if err := d.Service.CheckInvariants(); err != nil {
		t.Errorf("promoted service invariants: %v", err)
	}
}

// TestFailoverIDCounterNoCollision checks AdoptIDCounter: ids allocated
// by the promoted standby must not collide with replicated ids.
func TestFailoverIDCounterNoCollision(t *testing.T) {
	tb, d := core.Rig(t, 3, 1)
	sb := core.DeployStandby(tb, d, time.Millisecond)
	tb.Run()
	seen := make(map[vfs.Ino]bool)
	// create makes 20 files named by format and fails t on an id that
	// any earlier file had.
	create := func(format string) {
		var paths []string
		var ops []trace.Op
		for i := 0; i < 20; i++ {
			paths = append(paths, fmt.Sprintf(format, i))
			ops = append(ops, core.Create(0, paths[i], 0644))
		}
		core.Play(t, tb, d, ops...)
		for i, attr := range core.Attrs(t, tb, d, 0, paths...) {
			if seen[attr.Ino] {
				t.Errorf("%s reuses ino %d", paths[i], attr.Ino)
			}
			seen[attr.Ino] = true
		}
	}
	create("/f%02d")
	sb.Promote(d)
	create("/g%02d")
}

// TestDeployStandbyMidMigrationRefused pins the deploy-time guard: a
// standby attached while a reshard is migrating rows would size itself
// by a shard count the migration is about to abandon, and its shipped
// tables would silently disagree with the settled map. DeployStandby
// must fail fast instead of attaching a doomed plane.
func TestDeployStandbyMidMigrationRefused(t *testing.T) {
	tb, d := crashRig(t, 7700, 2)
	buildTree(t, tb, d, 8, 24)
	attempted := false
	d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
		if seq == 0 {
			attempted = true
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("DeployStandby during a live 2->4 grow did not panic")
					}
				}()
				core.DeployStandby(tb, d, time.Millisecond)
			}()
		}
		return false
	})
	core.Drained(tb, "grow-with-attach", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, 4); err != nil {
			t.Errorf("reshard: %v", err)
		}
	})
	if !attempted {
		t.Fatal("migration fired no step points, guard never exercised")
	}
	// The refused attach must leave no standby behind: a later,
	// correctly-timed deploy attaches to the settled 4-shard plane.
	sb := core.DeployStandby(tb, d, time.Millisecond)
	if got := len(sb.Replicas); got != 4 {
		t.Fatalf("post-reshard standby has %d replicas, want 4", got)
	}
}

// standbyCrashRig is crashRig plus an attached standby plane. A probe
// and the run it probes must deploy identically — the standby's
// shipping traffic is part of the schedule the probe measures.
func standbyCrashRig(t *testing.T, seed int64, shards int, delay time.Duration) (*cluster.Testbed, *core.Deployment, *core.Standby) {
	t.Helper()
	tb, d := crashRig(t, seed, shards)
	sb := core.DeployStandby(tb, d, delay)
	tb.Run()
	return tb, d, sb
}

// TestPromoteMidMigration kills the primary plane at every step point
// of a grow and a shrink and promotes the standby there: the promoted
// plane must serve the identical namespace, finish the move the dead
// primaries started (the spawned recovery drains on the next run), and
// end settled at the target shape — including retiring its own drained
// shards on the shrink.
func TestPromoteMidMigration(t *testing.T) {
	var sb *core.Standby // the standby of the rig deployed last
	rig := func(t *testing.T, seed int64, shards int) (*cluster.Testbed, *core.Deployment) {
		tb, d, s := standbyCrashRig(t, seed, shards, time.Millisecond)
		sb = s
		return tb, d
	}
	sweepReshardSteps(t, 7500, rig, func(*sim.Proc, *core.Deployment) {}, func(t *testing.T, tb *cluster.Testbed, d *core.Deployment, paths []string, tc stepCase) {
		// The step drained the shipping pipeline, so the standby holds
		// everything the primaries committed.
		if lag := sb.Lag(); lag != 0 {
			t.Fatalf("lag after drain = %d, want 0", lag)
		}
		d.Service.Crash()
		if lost := sb.Promote(d); lost != 0 {
			t.Fatalf("promote lost %d records after a drained pipeline", lost)
		}
		// Drain the promoted plane's spawned mid-reshard recovery, then
		// hold it to the full contract.
		tb.Run()
		assertRecovered(t, tb, d, paths, tc.to)
		if tc.to < tc.from {
			assertRetired(t, tb, "cofs-mds-standby%d", tc)
		}
	})
}

// TestPromoteRollsForwardUnshippedImport pins the one recovery case
// where the surviving copy is NOT at the row group's owner: the epoch
// installed (the shared coordinator outlives the primaries) but the
// batch's import never shipped to the standby before the primaries
// died. The promoted plane must roll the group forward from the old
// owner's replica — deleting it as a stray would lose the rows.
func TestPromoteRollsForwardUnshippedImport(t *testing.T) {
	// A long shipping delay so nothing of the migration has shipped when
	// the plane dies; the tree itself is drained (tb.Run in buildTree
	// runs the pumps dry) before the reshard begins.
	tb, d, sb := standbyCrashRig(t, 7600, 2, 50*time.Millisecond)
	paths := buildTree(t, tb, d, 8, 24)
	// Probe on a twin rig so this rig's schedule stays untouched.
	tbp, dp, _ := standbyCrashRig(t, 7600, 2, 50*time.Millisecond)
	installedAt := slices.Index(countReshardSteps(t, tbp, dp, 4, 8, 24), core.ReshardInstalled)
	if installedAt < 0 {
		t.Fatal("probe migration never installed an epoch")
	}
	var lost int
	reshardUntil(t, tb, d, 4, installedAt, func(p *sim.Proc) {
		// Die and promote without yielding: the batch's import is
		// committed at the primary and the epoch is installed, but no
		// ship pump has fired — the standby's new owner shard has never
		// seen the group.
		d.Service.Crash()
		lost = sb.Promote(d)
	})
	if lost == 0 {
		t.Fatal("no unshipped window — the roll-forward path was not exercised")
	}
	tb.Run()
	assertRecovered(t, tb, d, paths, 4)
}
