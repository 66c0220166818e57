package core

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/params"
	"cofs/internal/sim"
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

// createFiles creates /d/f0 … /d/f<n-1> from node 0 and returns their
// underlying paths.
func createFiles(t *testing.T, p *sim.Proc, d *Deployment, n int) []string {
	t.Helper()
	m, ctx := d.Mounts[0], cluster.Ctx(0, 1)
	if err := m.Mkdir(p, ctx, "/d", 0755); err != nil {
		t.Fatal(err)
	}
	var upaths []string
	for i := 0; i < n; i++ {
		f, err := m.Create(p, ctx, fmt.Sprintf("/d/f%d", i), 0644)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		upath, ok := d.Service.Mapping(f.Ino())
		if !ok {
			t.Fatalf("/d/f%d has no mapping", i)
		}
		upaths = append(upaths, upath)
	}
	return upaths
}

// TestRemovalBound: with maxPendingRemovals removals in flight on a
// node, its next unlink waits for a slot, and core.removal_waits counts
// that one wait.
func TestRemovalBound(t *testing.T) {
	tb, d := Rig(t, 1, 1, slowUnder)
	fs := d.FSs[0]
	const n = maxPendingRemovals + 1
	fast, slow := tb.Cfg.PFS.ClientCPUPerOp/10, tb.Cfg.PFS.ClientCPUPerOp/2
	var upaths []string
	Drained(tb, "bound", func(p *sim.Proc) {
		upaths = createFiles(t, p, d, n)
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
	Drained(tb, "fail", func(p *sim.Proc) {
		upaths := createFiles(t, p, d, 2)
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
		m, ctx := d.Mounts[0], cluster.Ctx(0, 1)
		for i := range upaths {
			if err := m.Unlink(p, ctx, fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		d.DrainRemovals(p)
	})
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
	var oldPath, newPath string
	overlapped := false
	Drained(tb, "recreate", func(p *sim.Proc) {
		oldPath = createFiles(t, p, d, 1)[0]
		m, ctx := d.Mounts[0], cluster.Ctx(0, 1)
		dir, err := m.Stat(p, ctx, "/d")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Unlink(p, ctx, "/d/f0"); err != nil {
			t.Fatal(err)
		}
		// Watch the old removal finish: by then the new name must be in
		// the service's tables.
		tb.Env.Spawn("watch", func(p *sim.Proc) {
			d.FSs[0].DrainRemovals(p)
			_, overlapped = d.Service.shards[0].dentries.Peek(dentryKey{Parent: dir.Ino, Name: "f0"})
		})
		f, err := m.Create(p, ctx, "/d/f0", 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, 0, 4096); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		newPath, _ = d.Service.Mapping(f.Ino())
		if newPath == "" || newPath == oldPath {
			t.Fatalf("re-created file maps to %q, old file to %q: want a new path", newPath, oldPath)
		}
	})
	if !overlapped {
		t.Fatal("the old file's removal finished before the re-create committed: the test lost its overlap")
	}
	Drained(tb, "check", func(p *sim.Proc) {
		if underExists(t, p, tb, oldPath) {
			t.Fatalf("old file %s survived its removal", oldPath)
		}
		if !underExists(t, p, tb, newPath) {
			t.Fatalf("re-created file %s was removed", newPath)
		}
		attr, err := d.Mounts[0].Stat(p, cluster.Ctx(0, 1), "/d/f0")
		if err != nil || attr.Size != 4096 {
			t.Fatalf("re-created /d/f0: %+v, %v", attr, err)
		}
	})
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
	Drained(tb, "crash", func(p *sim.Proc) {
		createFiles(t, p, d, n)
		m, ctx := d.Mounts[0], cluster.Ctx(0, 1)
		for i := 0; i < n; i++ {
			if err := m.Unlink(p, ctx, fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.FSs[0].removing.InUse(); got != n {
			t.Fatalf("%d removals in flight at the crash, want %d", got, n)
		}
		d.Service.Crash()
		d.Service.Recover(p)
		d.Service.AdoptIDCounter()
		rep := Fsck(p, d.Service, tb.Mounts[0])
		if len(rep.Missing) != 0 || rep.TableErr != nil {
			t.Fatalf("after recovery, removals in flight: %v", rep)
		}
		for i := 0; i < n; i++ {
			if _, err := m.Stat(p, ctx, fmt.Sprintf("/d/f%d", i)); err != vfs.ErrNotExist {
				t.Fatalf("/d/f%d after recovery: %v, want %v", i, err, vfs.ErrNotExist)
			}
		}
		d.DrainRemovals(p)
		if rep := Fsck(p, d.Service, tb.Mounts[0]); !rep.OK() {
			t.Fatalf("after the drain: %v", rep)
		}
	})
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
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
