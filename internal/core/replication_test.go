package core_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// TestStandbyTracksPrimary verifies WAL shipping keeps the standby's
// namespace identical to the primary's once the pipeline drains.
func TestStandbyTracksPrimary(t *testing.T) {
	tb, d := core.Rig(t, 5, 2)
	sb := core.DeployStandby(tb, d, time.Millisecond)
	tb.Run()

	ctx := cluster.Ctx(0, 1)
	tb.Env.Spawn("workload", func(p *sim.Proc) {
		m := d.Mounts[0]
		if err := m.MkdirAll(p, ctx, "/out", 0777); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 50; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/out/f%02d", i), 0644)
			if err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
			if _, err := f.WriteAt(p, 0, 4096); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			if err := f.Close(p); err != nil {
				t.Errorf("close %d: %v", i, err)
			}
		}
		if err := m.Unlink(p, ctx, "/out/f00"); err != nil {
			t.Errorf("unlink: %v", err)
		}
	})
	tb.Run()

	if lag := sb.Lag(); lag != 0 {
		t.Fatalf("replica lag after drain = %d, want 0", lag)
	}
	// The standby's tables must mirror the primary's mappings exactly.
	var primary, standby []string
	d.Service.EachMapping(func(id vfs.Ino, upath string) {
		primary = append(primary, fmt.Sprintf("%d=%s", id, upath))
	})
	sb.Cluster.EachMapping(func(id vfs.Ino, upath string) {
		standby = append(standby, fmt.Sprintf("%d=%s", id, upath))
	})
	if len(primary) != 49 {
		t.Fatalf("primary has %d mappings, want 49", len(primary))
	}
	if fmt.Sprint(primary) != fmt.Sprint(standby) {
		t.Errorf("standby mappings diverge from primary:\n primary: %v\n standby: %v", primary, standby)
	}
	if err := sb.Cluster.CheckInvariants(); err != nil {
		t.Errorf("standby invariants: %v", err)
	}
}

// TestFailoverPromotion kills the primary mid-workload, promotes the
// standby, and verifies clients continue against the promoted service:
// shipped files survive, new creates allocate fresh (non-colliding)
// file ids, and the namespace stays consistent.
func TestFailoverPromotion(t *testing.T) {
	tb, d := core.Rig(t, 9, 2)
	sb := core.DeployStandby(tb, d, time.Millisecond)
	tb.Run()

	ctx := cluster.Ctx(0, 1)
	tb.Env.Spawn("phase1", func(p *sim.Proc) {
		m := d.Mounts[0]
		if err := m.MkdirAll(p, ctx, "/ckpt", 0777); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/ckpt/pre-%02d", i), 0644)
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			f.WriteAt(p, 0, 1024)
			f.Close(p)
		}
	})
	tb.Run()

	// Primary dies; the deployment promotes the standby.
	d.Service.Crash()
	lost := sb.Promote(d)
	if lost != 0 {
		t.Logf("failover lost %d unshipped records (allowed)", lost)
	}

	ctx2 := cluster.Ctx(1, 7)
	tb.Env.Spawn("phase2", func(p *sim.Proc) {
		m := d.Mounts[1]
		// Pre-crash files are visible through the promoted service.
		for i := 0; i < 30; i++ {
			attr, err := m.Stat(p, ctx, fmt.Sprintf("/ckpt/pre-%02d", i))
			if err != nil {
				t.Errorf("stat pre-%02d after failover: %v", i, err)
				return
			}
			if attr.Size != 1024 {
				t.Errorf("pre-%02d size = %d, want 1024", i, attr.Size)
			}
		}
		// New creates work and land in the promoted service.
		for i := 0; i < 10; i++ {
			f, err := m.Create(p, ctx2, fmt.Sprintf("/ckpt/post-%02d", i), 0644)
			if err != nil {
				t.Errorf("create after failover: %v", err)
				return
			}
			f.WriteAt(p, 0, 2048)
			f.Close(p)
		}
		ents, err := m.Readdir(p, ctx2, "/ckpt")
		if err != nil {
			t.Errorf("readdir: %v", err)
			return
		}
		if len(ents) != 40 {
			t.Errorf("entries after failover = %d, want 40", len(ents))
		}
	})
	tb.Run()

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

	ctx := cluster.Ctx(0, 1)
	seen := make(map[vfs.Ino]bool)
	tb.Env.Spawn("pre", func(p *sim.Proc) {
		m := d.Mounts[0]
		for i := 0; i < 20; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/f%02d", i), 0644)
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if seen[f.Ino()] {
				t.Errorf("duplicate ino %d before failover", f.Ino())
			}
			seen[f.Ino()] = true
			f.Close(p)
		}
	})
	tb.Run()

	sb.Promote(d)
	tb.Env.Spawn("post", func(p *sim.Proc) {
		m := d.Mounts[0]
		for i := 0; i < 20; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/g%02d", i), 0644)
			if err != nil {
				t.Errorf("create after promote: %v", err)
				return
			}
			if seen[f.Ino()] {
				t.Errorf("ino %d reused after failover", f.Ino())
			}
			seen[f.Ino()] = true
			f.Close(p)
		}
	})
	tb.Run()
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

// standbyCrashRig is crashRig plus an attached standby plane. The
// probe and the sweep below must deploy identically — the standby's
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
			seed := 7500 + int64(tc.from*10+tc.to)
			// Probe: learn every step point of this migration with the
			// standby attached.
			var points []core.ReshardPoint
			{
				tb, d, _ := standbyCrashRig(t, seed, tc.from, time.Millisecond)
				buildTree(t, tb, d, tc.dirs, tc.files)
				d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
					points = append(points, at)
					return false
				})
				core.Drained(tb, "probe-reshard", func(p *sim.Proc) {
					if err := d.Service.Reshard(p, tc.to); err != nil {
						t.Fatalf("probe reshard: %v", err)
					}
				})
			}
			if len(points) == 0 {
				t.Fatal("probe migration fired no step points")
			}
			for k := range points {
				k := k
				t.Run(fmt.Sprintf("at-%02d-%s", k, points[k]), func(t *testing.T) {
					tb, d, sb := standbyCrashRig(t, seed, tc.from, time.Millisecond)
					paths := buildTree(t, tb, d, tc.dirs, tc.files)
					d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
						return seq == k
					})
					core.Drained(tb, "reshard-interrupt", func(p *sim.Proc) {
						if err := d.Service.Reshard(p, tc.to); err != core.ErrReshardInterrupted {
							t.Errorf("reshard returned %v, want ErrReshardInterrupted", err)
						}
					})
					// The step drained the shipping pipeline, so the
					// standby holds everything the primaries committed.
					if lag := sb.Lag(); lag != 0 {
						t.Fatalf("lag after drain = %d, want 0", lag)
					}
					d.Service.Crash()
					if lost := sb.Promote(d); lost != 0 {
						t.Fatalf("promote lost %d records after a drained pipeline", lost)
					}
					// Drain the promoted plane's spawned mid-reshard
					// recovery, then hold it to the full contract.
					tb.Run()
					assertRecovered(t, tb, d, paths, tc.to)
					if tc.to < tc.from {
						names := hostNames(tb)
						for i := tc.to; i < tc.from; i++ {
							if names[fmt.Sprintf("cofs-mds-standby%d", i)] {
								t.Errorf("retired standby host cofs-mds-standby%d still on the testbed", i)
							}
						}
					}
				})
			}
		})
	}
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
	installedAt := -1
	{
		// Probe on a twin rig so this rig's schedule stays untouched.
		var points []core.ReshardPoint
		tbp, dp, _ := standbyCrashRig(t, 7600, 2, 50*time.Millisecond)
		buildTree(t, tbp, dp, 8, 24)
		dp.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
			points = append(points, at)
			return false
		})
		core.Drained(tbp, "probe-reshard", func(p *sim.Proc) {
			if err := dp.Service.Reshard(p, 4); err != nil {
				t.Fatalf("probe reshard: %v", err)
			}
		})
		for seq, at := range points {
			if at == core.ReshardInstalled {
				installedAt = seq
				break
			}
		}
	}
	if installedAt < 0 {
		t.Fatal("probe migration never installed an epoch")
	}
	d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
		return seq == installedAt
	})
	var lost int
	core.Drained(tb, "reshard-die-promote", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, 4); err != core.ErrReshardInterrupted {
			t.Errorf("reshard returned %v, want ErrReshardInterrupted", err)
			return
		}
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
