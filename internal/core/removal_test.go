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

// These tests pin the order of an unlink (FS.Unlink, removal.go): the
// name and the mapping are gone when the call returns, the underlying
// file goes in the background, at most maxPendingRemovals at a time per
// node, and a crash in between leaves orphans at worst, never a mapping
// without its file.

// slowUnder makes every underlying metadata operation cost 50 ms of
// client CPU, so a removal stays in flight for far longer than a COFS
// unlink, even one that syncs its commit, takes to return.
func slowUnder(cfg *params.Config) { cfg.PFS.ClientCPUPerOp = 50 * time.Millisecond }

// underExists reports whether upath exists on the underlying file system.
func underExists(t *testing.T, p *sim.Proc, tb *cluster.Testbed, upath string) bool {
	t.Helper()
	_, err := tb.Mounts[0].Stat(p, vfs.Ctx{UID: 0}, upath)
	if err != nil && err != vfs.ErrNotExist {
		t.Fatalf("stat %s: %v", upath, err)
	}
	return err == nil
}

// createFiles sets up /d with the empty files f0 … f<n-1> from node 0
// and returns their underlying paths.
func createFiles(t *testing.T, tb *cluster.Testbed, d *Deployment, n int) []string {
	t.Helper()
	Play(t, tb, d, Dir(0, "/d", 0755, n, "f%d", 0)...)
	upaths := make([]string, n)
	for i := range upaths {
		upath, ok := d.Service.Mapping(Ino(t, tb, d, fmt.Sprintf("/d/f%d", i)))
		if !ok {
			t.Fatalf("/d/f%d has no mapping", i)
		}
		upaths[i] = upath
	}
	return upaths
}

// unlinks is node 0's unlink of /d/f0 … /d/f<n-1>, in order.
func unlinks(n int) []trace.Op {
	ops := make([]trace.Op, n)
	for i := range ops {
		ops[i] = Op(0, trace.Unlink, fmt.Sprintf("/d/f%d", i), "")
	}
	return ops
}

// TestRemovalBound: with maxPendingRemovals removals in flight on a
// node, its next unlink waits for a slot, and core.removal_waits counts
// that one wait.
func TestRemovalBound(t *testing.T) {
	tb, d := Rig(t, 1, 1, slowUnder)
	fs := d.FSs[0]
	const n = maxPendingRemovals + 1
	fast, slow := tb.Cfg.PFS.ClientCPUPerOp/10, tb.Cfg.PFS.ClientCPUPerOp/2
	upaths := createFiles(t, tb, d, n)
	Drained(tb, "bound", func(p *sim.Proc) {
		m, ctx := d.Mounts[0], cluster.Ctx(0, 1)
		for i := 0; i < n; i++ {
			t0 := p.Now()
			if err := m.Unlink(p, ctx, fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Fatal(err)
			}
			took := p.Now() - t0
			switch {
			case i < maxPendingRemovals && (took >= fast || fs.removing.Contended != 0):
				t.Fatalf("unlink %d took %v with %d in flight, %d waits: it waited for a removal",
					i, took, i, fs.removing.Contended)
			case i < maxPendingRemovals && fs.removing.InUse() != i+1:
				t.Fatalf("after unlink %d: %d removals in flight, want %d", i, fs.removing.InUse(), i+1)
			case i == maxPendingRemovals && (took < slow || fs.removing.Contended != 1):
				t.Fatalf("unlink %d with %d in flight took %v, %d waits: want one wait for a removal",
					i, maxPendingRemovals, took, fs.removing.Contended)
			}
		}
	})
	c := d.Counters()
	if got := c.Get("core.removal_waits"); got != 1 {
		t.Fatalf("core.removal_waits = %d, want 1", got)
	}
	if got := c.Get("core.removals"); got != n {
		t.Fatalf("core.removals = %d, want %d", got, n)
	}
	Drained(tb, "gone", func(p *sim.Proc) {
		for _, upath := range upaths {
			if underExists(t, p, tb, upath) {
				t.Fatalf("%s survived its removal", upath)
			}
		}
	})
	CheckPlane(t, tb, d, PlaneFsck)
}

// TestRemovalFailuresCounted: nobody waits for a background removal, so
// one whose underlying unlink fails is counted in core.removal_failures.
// A file already gone is not a failure.
func TestRemovalFailuresCounted(t *testing.T) {
	tb, d := Rig(t, 1, 1)
	upaths := createFiles(t, tb, d, 2)
	Drained(tb, "fail", func(p *sim.Proc) {
		under, root := tb.Mounts[0], vfs.Ctx{UID: 0}
		// f0's underlying file becomes a directory, which the PFS
		// refuses to unlink; f1's is gone before COFS removes it.
		for _, upath := range upaths {
			if err := under.Unlink(p, root, upath); err != nil {
				t.Fatal(err)
			}
		}
		if err := under.Mkdir(p, root, upaths[0], 0755); err != nil {
			t.Fatal(err)
		}
	})
	Play(t, tb, d, unlinks(2)...)
	c := d.Counters()
	if got := c.Get("core.removals"); got != 2 {
		t.Fatalf("core.removals = %d, want 2", got)
	}
	if got := c.Get("core.removal_failures"); got != 1 {
		t.Fatalf("core.removal_failures = %d, want 1", got)
	}
}

// TestRecreateDuringRemoval re-creates a name whose old file is still
// being removed: the new name commits before the old removal finishes,
// the new file gets a new underlying path and survives that removal, and
// fsck is clean afterwards.
func TestRecreateDuringRemoval(t *testing.T) {
	tb, d := Rig(t, 1, 1, slowUnder)
	oldPath := createFiles(t, tb, d, 1)[0]
	dir := Ino(t, tb, d, "/d")
	// Watch the old removal finish: by then the new name must be in the
	// service's tables. The watcher starts 25 ms in: the unlink has
	// started the removal, which takes over 50 ms.
	var seen vfs.Ino
	tb.Env.Spawn("watch", func(p *sim.Proc) {
		p.Sleep(25 * time.Millisecond)
		if d.FSs[0].removing.InUse() == 0 {
			t.Error("the watcher found no removal in flight")
		}
		d.FSs[0].DrainRemovals(p)
		row, _ := d.Service.shards[0].dentries.Peek(dentryKey{Parent: dir, Name: "f0"})
		seen = row.Child
	})
	Play(t, tb, d, Op(0, trace.Unlink, "/d/f0", ""), Write(0, "/d/f0", 4096))
	newIno := Ino(t, tb, d, "/d/f0")
	if seen != newIno {
		t.Fatal("the old file's removal finished before the re-create committed: the test lost its overlap")
	}
	newPath, _ := d.Service.Mapping(newIno)
	if newPath == "" || newPath == oldPath {
		t.Fatalf("re-created file maps to %q, old file to %q: want a new path", newPath, oldPath)
	}
	Drained(tb, "check", func(p *sim.Proc) {
		if underExists(t, p, tb, oldPath) {
			t.Fatalf("old file %s survived its removal", oldPath)
		}
		if !underExists(t, p, tb, newPath) {
			t.Fatalf("re-created file %s was removed", newPath)
		}
	})
	if attr := Attrs(t, tb, d, 0, "/d/f0")[0]; attr.Size != 4096 {
		t.Fatalf("re-created /d/f0: %+v", attr)
	}
	CheckPlane(t, tb, d, PlaneFsck)
}

// TestCrashWithRemovalsInFlight crashes and recovers the metadata plane
// while every slot of the node holds a removal. Commits are synchronous
// here (LogFlushInterval 0), so each unlink's removal was durable before
// its file started to go: recovery brings back no mapping whose file is
// gone, and once the removals drain, no file without a mapping either.
func TestCrashWithRemovalsInFlight(t *testing.T) {
	tb, d := Rig(t, 1, 1, slowUnder, func(c *params.Config) { c.COFS.LogFlushInterval = 0 })
	const n = maxPendingRemovals
	createFiles(t, tb, d, n)
	// The crash comes 30 ms in: after the unlinks returned (13 ms),
	// before the first of their removals finished (52 ms).
	tb.Env.Spawn("crash", func(p *sim.Proc) {
		p.Sleep(30 * time.Millisecond)
		if got := d.FSs[0].removing.InUse(); got != n {
			t.Errorf("%d removals in flight at the crash, want %d", got, n)
		}
		d.Service.Crash()
		d.Service.Recover(p)
		d.Service.AdoptIDCounter()
		if rep := Fsck(p, d.Service, tb.Mounts[0]); len(rep.Missing) != 0 || rep.TableErr != nil {
			t.Errorf("after recovery, removals in flight: %v", rep)
		}
	})
	Play(t, tb, d, unlinks(n)...)
	var stats []trace.Op
	for i := 0; i < n; i++ {
		stats = append(stats, Stat(0, fmt.Sprintf("/d/f%d", i)))
	}
	Expect(t, tb, d, vfs.ErrNotExist, stats...)
	CheckPlane(t, tb, d, PlaneTables|PlaneFsck)
}

// TestCreateCloseUnlinkAllocs pins the client's per-file cost at the
// COFS layer: a warm create, close and unlink, underlying object create
// and removal included, allocates no more than 3. The object-create and
// removal jobs come from the node's pools and their processes from the
// kernel's (sim.Env.Go), so running them beside the operation costs no
// allocation, and the object's path is built once (objectPath). The
// handle comes from the client's pool and holds its underlying file by
// value, and the underlying file's tokens come from the token manager's
// slab.
func TestCreateCloseUnlinkAllocs(t *testing.T) {
	if n := createCloseUnlinkAllocs(t, 1); n > 3 {
		t.Errorf("create+close+unlink allocates %v, want <= 3", n)
	}
}

// TestCreateCloseUnlinkAllocs4Shards is the same cycle on a sharded
// plane, where the create and the unlink open lock-ordered row
// transactions (txnlock.go): a footprint's discovered rows are split on
// the stack, so the row locks add nothing.
func TestCreateCloseUnlinkAllocs4Shards(t *testing.T) {
	if n := createCloseUnlinkAllocs(t, 4); n > 3 {
		t.Errorf("create+close+unlink on 4 shards allocates %v, want <= 3", n)
	}
}

// createCloseUnlinkAllocs measures a warm create+close+unlink in the
// root directory of a one-node deployment with the given shard count.
func createCloseUnlinkAllocs(t *testing.T, shards int) float64 {
	skipUnderRace(t)
	tb, d := Rig(t, 1, 1, Shards(shards))
	fs, ctx := d.FSs[0], cluster.Ctx(0, 1)
	var n float64
	tb.Env.Spawn("pin", func(p *sim.Proc) {
		cycle := func() {
			_, h, err := fs.Create(p, ctx, RootID, "f", 0644)
			if err != nil {
				panic(err)
			}
			if err := fs.Release(p, ctx, h); err != nil {
				panic(err)
			}
			if err := fs.Unlink(p, ctx, RootID, "f"); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 2000; i++ {
			cycle()
		}
		n = testing.AllocsPerRun(1000, cycle)
	})
	tb.Run()
	t.Logf("%d shards: %v allocations per create+close+unlink", shards, n)
	return n
}
