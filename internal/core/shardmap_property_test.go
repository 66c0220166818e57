package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// TestShardMapDeterministic: Of and DirTarget are pure functions of
// their inputs — the property that makes placement reconstructible
// after a restart without any lookup table.
func TestShardMapDeterministic(t *testing.T) {
	f := func(ino uint32, parent uint16, name string, n uint8) bool {
		shards := int(n%7) + 2
		a := core.ShardMap{Shards: shards}
		b := core.ShardMap{Shards: shards}
		id := vfs.Ino(ino) + 1
		return a.Of(id) == b.Of(id) &&
			a.DirTarget(vfs.Ino(parent)+1, name) == b.DirTarget(vfs.Ino(parent)+1, name)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestShardMapInRange: every placement lands on a real shard, and the
// root always lands on shard 0 (where it is bootstrapped).
func TestShardMapInRange(t *testing.T) {
	f := func(ino uint32, parent uint16, name string, n uint8) bool {
		shards := int(n%8) + 1
		m := core.ShardMap{Shards: shards}
		of := m.Of(vfs.Ino(ino) + 1)
		dt := m.DirTarget(vfs.Ino(parent)+1, name)
		return of >= 0 && of < shards && dt >= 0 && dt < shards && m.Of(core.RootID) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// shardWorkload drives a deployment with a seeded random tree workload:
// dirs under the root, files and the occasional cross-directory rename
// and hard link below them. Returns the directory paths it made.
func shardWorkload(t *testing.T, tb *cluster.Testbed, d *core.Deployment, seed int64, dirs, files int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ctx := cluster.Ctx(0, 1)
	m := d.Mounts[0]
	tb.Env.Spawn("workload", func(p *sim.Proc) {
		for i := 0; i < dirs; i++ {
			if err := m.Mkdir(p, ctx, fmt.Sprintf("/d%03d", i), 0777); err != nil {
				panic(err)
			}
		}
		for i := 0; i < files; i++ {
			dir := rng.Intn(dirs)
			name := fmt.Sprintf("/d%03d/f%04d", dir, i)
			f, err := m.Create(p, ctx, name, 0644)
			if err != nil {
				panic(err)
			}
			f.Close(p)
			switch rng.Intn(8) {
			case 0: // cross-directory rename: the inode keeps its shard
				if err := m.Rename(p, ctx, name, fmt.Sprintf("/d%03d/r%04d", rng.Intn(dirs), i)); err != nil {
					panic(err)
				}
			case 1: // cross-directory hard link
				if err := m.Link(p, ctx, name, fmt.Sprintf("/d%03d/l%04d", rng.Intn(dirs), i)); err != nil {
					panic(err)
				}
			}
		}
	})
	tb.Run()
}

// TestShardMapBalancedUnderRandomWorkload: under a random tree workload
// the inode rows must spread over every shard, with the fullest shard
// staying within a small factor of the emptiest — the property that
// makes adding shards add capacity instead of moving the hot spot.
func TestShardMapBalancedUnderRandomWorkload(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			tb, d := core.Rig(t, seed, 1, core.Shards(shards))
			shardWorkload(t, tb, d, seed*100, 64, 512)
			counts := d.Service.ShardCounts()
			min, max, total := counts[0], counts[0], 0
			for _, n := range counts {
				if n < min {
					min = n
				}
				if n > max {
					max = n
				}
				total += n
			}
			if min == 0 {
				t.Fatalf("shards=%d seed=%d: an empty shard: %v", shards, seed, counts)
			}
			if ratio := float64(max) / float64(min); ratio > 3.0 {
				t.Errorf("shards=%d seed=%d: imbalance max/min=%.2f (%v)", shards, seed, ratio, counts)
			}
			if err := d.Service.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardPlacementStableAcrossRuns: the same seeded workload on two
// fresh deployments produces identical id->shard placement (the
// deterministic half of stability).
func TestShardPlacementStableAcrossRuns(t *testing.T) {
	run := func() ([]int, []string) {
		tb, d := core.Rig(t, 7, 1, core.Shards(4))
		shardWorkload(t, tb, d, 700, 32, 256)
		var maps []string
		d.Service.EachMapping(func(id vfs.Ino, upath string) {
			maps = append(maps, fmt.Sprintf("%d=%s", id, upath))
		})
		return d.Service.ShardCounts(), maps
	}
	c1, m1 := run()
	c2, m2 := run()
	if fmt.Sprint(c1) != fmt.Sprint(c2) {
		t.Errorf("shard counts differ across identical runs: %v vs %v", c1, c2)
	}
	if fmt.Sprint(m1) != fmt.Sprint(m2) {
		t.Error("mapping tables differ across identical runs")
	}
}

// TestShardPlacementStableAcrossRestart: after a whole-plane crash and
// WAL recovery with the same shard count, every surviving inode is on
// the shard the map assigns it (CheckInvariants pins row placement),
// per-shard populations are unchanged, and the namespace still resolves.
func TestShardPlacementStableAcrossRestart(t *testing.T) {
	tb, d := core.Rig(t, 11, 1, core.Shards(4))
	shardWorkload(t, tb, d, 1100, 32, 256)

	before := d.Service.ShardCounts()
	tb.Env.Spawn("restart", func(p *sim.Proc) {
		d.Service.Checkpoint(p) // force every row into the recoverable log
		d.Service.Crash()
		d.Service.Recover(p)
	})
	tb.Run()
	d.Service.AdoptIDCounter()

	if after := d.Service.ShardCounts(); fmt.Sprint(before) != fmt.Sprint(after) {
		t.Errorf("per-shard populations changed across restart: %v -> %v", before, after)
	}
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatalf("placement invariants after restart: %v", err)
	}
	// The namespace is intact and accepts new work with fresh ids.
	ctx := cluster.Ctx(0, 1)
	tb.Env.Spawn("post", func(p *sim.Proc) {
		m := d.Mounts[0]
		m.InvalidateDcache()
		if _, err := m.Stat(p, ctx, "/d000"); err != nil {
			t.Errorf("stat after restart: %v", err)
		}
		f, err := m.Create(p, ctx, "/d000/post-restart", 0644)
		if err != nil {
			t.Errorf("create after restart: %v", err)
			return
		}
		f.Close(p)
	})
	tb.Run()
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
