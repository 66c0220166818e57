package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

var ctx = cluster.Ctx(0, 1)

// run runs fn as one drained phase and holds the service's tables and
// the underlying file system to their invariants.
func run(t *testing.T, tb *cluster.Testbed, d *core.Deployment, fn func(p *sim.Proc)) {
	t.Helper()
	core.Drained(tb, "test", fn)
	core.CheckPlane(t, tb, d, core.PlaneTables|core.PlaneUnder)
}

func TestCreateStatThroughCOFS(t *testing.T) {
	tb, d := core.Rig(t, 1, 1)
	m := d.Mounts[0]
	run(t, tb, d, func(p *sim.Proc) {
		f, err := m.Create(p, ctx, "/a.txt", 0644)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		attr, err := m.Stat(p, ctx, "/a.txt")
		if err != nil {
			t.Fatal(err)
		}
		if attr.Type != vfs.TypeRegular || attr.Mode != 0644 || attr.UID != 1000 {
			t.Fatalf("attr=%+v", attr)
		}
	})
}

func TestVirtualSharedDirMapsToManyUnderlyingDirs(t *testing.T) {
	tb, d := core.Rig(t, 1, 4)
	run(t, tb, d, func(p *sim.Proc) {
		if err := d.Mounts[0].Mkdir(p, ctx, "/shared", 0777); err != nil {
			t.Fatal(err)
		}
	})
	var creates []trace.Op
	for node := 0; node < 4; node++ {
		for i := 0; i < 50; i++ {
			creates = append(creates, core.Create(node, fmt.Sprintf("/shared/f%d-%d", node, i), 0644))
		}
	}
	core.Play(t, tb, d, creates...)

	// The virtual directory holds all 200 files...
	var ents []vfs.DirEntry
	core.Drained(tb, "list", func(p *sim.Proc) {
		var err error
		ents, err = d.Mounts[0].Readdir(p, ctx, "/shared")
		if err != nil {
			panic(err)
		}
	})
	if len(ents) != 200 {
		t.Fatalf("virtual entries=%d, want 200", len(ents))
	}
	// ...while the underlying layout scattered them into >= 4 node-
	// distinct bucket directories.
	buckets := map[string]bool{}
	for _, e := range ents {
		upath, ok := d.Service.Mapping(e.Ino)
		if !ok {
			t.Fatalf("no mapping for %s", e.Name)
		}
		dir := upath[:strings.LastIndex(upath, "/")]
		buckets[dir] = true
	}
	if len(buckets) < 4 {
		t.Fatalf("underlying buckets=%d, want >= 4 (one per node)", len(buckets))
	}
}

func TestBucketCapSpills(t *testing.T) {
	// RandomSubdirs 1: a single bucket per (node,pid,parent).
	tb, d := core.Rig(t, 1, 1, func(c *params.Config) { c.COFS.MaxEntriesPerDir, c.COFS.RandomSubdirs = 16, 1 })
	m := d.Mounts[0]
	tb.Env.Spawn("t", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/f%02d", i), 0644)
			if err != nil {
				panic(err)
			}
			f.Close(p)
		}
	})
	tb.Env.MustRun()
	if d.FSs[0].Stats.BucketSpills < 2 {
		t.Fatalf("spills=%d, want >= 2 with cap 16 and 40 files", d.FSs[0].Stats.BucketSpills)
	}
	// Verify no underlying directory exceeded the cap, via the mappings.
	counts := map[string]int{}
	var total int
	d.Service.EachMapping(func(id vfs.Ino, upath string) {
		dir := upath[:strings.LastIndex(upath, "/")]
		counts[dir]++
		total++
	})
	if total != 40 {
		t.Fatalf("mappings=%d", total)
	}
	for dir, n := range counts {
		if n > 16 {
			t.Fatalf("underlying dir %s has %d entries > cap 16", dir, n)
		}
	}
}

func TestRenameNeverTouchesUnderlying(t *testing.T) {
	tb, d := core.Rig(t, 1, 1)
	m := d.Mounts[0]
	run(t, tb, d, func(p *sim.Proc) {
		m.MkdirAll(p, ctx, "/a", 0777)
		m.MkdirAll(p, ctx, "/b", 0777)
		f, err := m.Create(p, ctx, "/a/file", 0644)
		if err != nil {
			t.Fatal(err)
		}
		f.Close(p)
		ino := f.Ino()
		before, _ := d.Service.Mapping(ino)
		underOps := tb.Mounts[0].Ops
		if err := m.Rename(p, ctx, "/a/file", "/b/renamed"); err != nil {
			t.Fatal(err)
		}
		if got := tb.Mounts[0].Ops; got != underOps {
			t.Fatalf("rename performed %d underlying ops, want 0", got-underOps)
		}
		after, _ := d.Service.Mapping(ino)
		if before != after {
			t.Fatalf("mapping changed on rename: %q -> %q", before, after)
		}
		if _, err := m.Stat(p, ctx, "/b/renamed"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLazyUnderlyingOpen: node 1 opens a file node 0 wrote. Only a read
// opens the underlying file, and with the lease cache the open itself
// costs no service request once a stat has cached the attributes; the
// mapping the stat did not bring then rides the read.
func TestLazyUnderlyingOpen(t *testing.T) {
	for _, mode := range []struct {
		name  string
		tweak func(*params.COFSParams)
		opens int64 // service requests of the metadata-only open/close
	}{
		{"uncached", func(*params.COFSParams) {}, 1},
		{"lease", func(c *params.COFSParams) { c.AttrLease = 30 * time.Second }, 0},
	} {
		t.Run(mode.name, func(t *testing.T) {
			tb, d := core.Rig(t, 1, 2, func(c *params.Config) { mode.tweak(&c.COFS) })
			m, fs, cx := d.Mounts[1], d.FSs[1], cluster.Ctx(1, 1)
			run(t, tb, d, func(p *sim.Proc) {
				f, _ := d.Mounts[0].Create(p, ctx, "/data", 0644)
				f.WriteAt(p, 0, 4096)
				f.Close(p)
				if _, err := m.Stat(p, cx, "/data"); err != nil {
					t.Fatal(err)
				}

				// Metadata-only open/close: no underlying open.
				ops := fs.Stats.ServiceOps
				g, err := m.Open(p, cx, "/data", vfs.OpenRead)
				if err != nil {
					t.Fatal(err)
				}
				g.Close(p)
				if fs.Stats.UnderOpens != 0 {
					t.Fatalf("underlying opens=%d after metadata-only open/close", fs.Stats.UnderOpens)
				}
				if got := fs.Stats.ServiceOps - ops; got != mode.opens {
					t.Fatalf("metadata-only open/close sent %d service requests, want %d", got, mode.opens)
				}

				// Reading forces the lazy open.
				g, _ = m.Open(p, cx, "/data", vfs.OpenRead)
				n, err := g.ReadAt(p, 0, 4096)
				if err != nil || n != 4096 {
					t.Fatalf("read=%d err=%v", n, err)
				}
				g.Close(p)
				if fs.Stats.UnderOpens != 1 {
					t.Fatalf("underlying opens=%d, want 1", fs.Stats.UnderOpens)
				}
			})
		})
	}
}

func TestSizeWriteBackOnClose(t *testing.T) {
	tb, d := core.Rig(t, 1, 2)
	run(t, tb, d, func(p *sim.Proc) {
		m0 := d.Mounts[0]
		f, _ := m0.Create(p, ctx, "/sized", 0644)
		f.WriteAt(p, 0, 12345)
		f.Close(p)
		// Another node sees the size via the service, without touching
		// the underlying file system.
		attr, err := d.Mounts[1].Stat(p, cluster.Ctx(1, 1), "/sized")
		if err != nil {
			t.Fatal(err)
		}
		if attr.Size != 12345 {
			t.Fatalf("remote size=%d, want 12345", attr.Size)
		}
	})
}

// TestUnlinkRemovesUnderlying: the name and the mapping are gone when
// Unlink returns; the underlying file is gone once the node's background
// removals have drained (name first, object later).
func TestUnlinkRemovesUnderlying(t *testing.T) {
	tb, d := core.Rig(t, 1, 1)
	m := d.Mounts[0]
	run(t, tb, d, func(p *sim.Proc) {
		f, _ := m.Create(p, ctx, "/gone", 0644)
		f.Close(p)
		ino := f.Ino()
		upath, _ := d.Service.Mapping(ino)
		if err := m.Unlink(p, ctx, "/gone"); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Service.Mapping(ino); ok {
			t.Fatal("mapping survived unlink")
		}
		if _, err := m.Stat(p, ctx, "/gone"); err != vfs.ErrNotExist {
			t.Fatalf("name survived unlink: %v", err)
		}
		d.FSs[0].DrainRemovals(p)
		if _, err := tb.Mounts[0].Stat(p, vfs.Ctx{UID: 0}, upath); err != vfs.ErrNotExist {
			t.Fatalf("underlying file survived unlink: %v", err)
		}
	})
}

func TestHardLinkSharesUnderlying(t *testing.T) {
	tb, d := core.Rig(t, 1, 1)
	m := d.Mounts[0]
	run(t, tb, d, func(p *sim.Proc) {
		f, _ := m.Create(p, ctx, "/orig", 0644)
		f.WriteAt(p, 0, 100)
		f.Close(p)
		if err := m.Link(p, ctx, "/orig", "/alias"); err != nil {
			t.Fatal(err)
		}
		// Unlinking one name keeps the underlying file.
		if err := m.Unlink(p, ctx, "/orig"); err != nil {
			t.Fatal(err)
		}
		g, err := m.Open(p, ctx, "/alias", vfs.OpenRead)
		if err != nil {
			t.Fatal(err)
		}
		n, err := g.ReadAt(p, 0, 100)
		if err != nil || n != 100 {
			t.Fatalf("read through alias=%d err=%v", n, err)
		}
		g.Close(p)
	})
}

func TestSymlinkVirtualOnly(t *testing.T) {
	tb, d := core.Rig(t, 1, 1)
	m := d.Mounts[0]
	run(t, tb, d, func(p *sim.Proc) {
		underOps := tb.Mounts[0].Ops
		if err := m.Symlink(p, ctx, "/some/target", "/lnk"); err != nil {
			t.Fatal(err)
		}
		got, err := m.Readlink(p, ctx, "/lnk")
		if err != nil || got != "/some/target" {
			t.Fatalf("readlink=%q err=%v", got, err)
		}
		if tb.Mounts[0].Ops != underOps {
			t.Fatal("symlink touched the underlying file system")
		}
	})
}

func TestPermissionEnforcedAtService(t *testing.T) {
	tb, d := core.Rig(t, 1, 1)
	m := d.Mounts[0]
	other := vfs.Ctx{Node: 0, PID: 9, UID: 2000, GID: 200}
	run(t, tb, d, func(p *sim.Proc) {
		if err := m.Mkdir(p, ctx, "/owned", 0700); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Create(p, other, "/owned/f", 0644); err != vfs.ErrPerm {
			t.Fatalf("create by other=%v, want ErrPerm", err)
		}
		f, _ := m.Create(p, ctx, "/owned/mine", 0600)
		f.Close(p)
		if _, err := m.Open(p, other, "/owned/mine", vfs.OpenRead); err != vfs.ErrPerm {
			t.Fatalf("open by other=%v, want ErrPerm", err)
		}
		if _, err := m.Chmod(p, other, "/owned/mine", 0777); err != vfs.ErrPerm {
			t.Fatalf("chmod by other=%v", err)
		}
	})
}

func TestServiceCrashRecovery(t *testing.T) {
	tb, d := core.Rig(t, 1, 1)
	m := d.Mounts[0]
	run(t, tb, d, func(p *sim.Proc) {
		m.MkdirAll(p, ctx, "/dir", 0777)
		for i := 0; i < 10; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/dir/f%d", i), 0644)
			if err != nil {
				t.Fatal(err)
			}
			f.Close(p)
		}
		// Force the Mnesia-style log dump, then crash and recover.
		d.Service.Checkpoint(p)
		f2, _ := m.Create(p, ctx, "/dir/unflushed", 0644)
		f2.Close(p)
		d.Service.Crash()
		d.Service.Recover(p)
		for i := 0; i < 10; i++ {
			if _, err := m.Stat(p, ctx, fmt.Sprintf("/dir/f%d", i)); err != nil {
				t.Fatalf("file f%d lost after crash+recovery: %v", i, err)
			}
		}
		// The create inside the async-flush window is lost — the
		// documented soft-real-time trade (section III-C).
		m.InvalidatePath(p, ctx, "/dir/unflushed")
		if _, err := m.Stat(p, ctx, "/dir/unflushed"); err != vfs.ErrNotExist {
			t.Fatalf("unflushed create survived crash: %v", err)
		}
		// And the namespace still accepts writes.
		f, err := m.Create(p, ctx, "/dir/post-crash", 0644)
		if err != nil {
			t.Fatal(err)
		}
		f.Close(p)
	})
}

func TestParallelSharedDirCreateFastThroughCOFS(t *testing.T) {
	gpfs := func() float64 {
		tb := cluster.New(1, 4, params.Default())
		return measureCreates(t, tb.Env, tb.Mounts, 128)
	}()
	cofs := func() float64 {
		tb, d := core.Rig(t, 1, 4)
		return measureCreates(t, tb.Env, d.Mounts, 128)
	}()
	if cofs*4 > gpfs {
		t.Fatalf("COFS create %.2fms not much faster than GPFS %.2fms", cofs, gpfs)
	}
	if cofs > 5.0 {
		t.Fatalf("COFS create %.2fms, paper reports 2-5ms", cofs)
	}
	t.Logf("shared-dir create: gpfs=%.2fms cofs=%.2fms speedup=%.1fx", gpfs, cofs, gpfs/cofs)
}

func measureCreates(t *testing.T, env *sim.Env, mounts []*vfs.Mount, per int) float64 {
	t.Helper()
	env.Spawn("setup", func(p *sim.Proc) {
		if err := mounts[0].Mkdir(p, ctx, "/shared", 0777); err != nil {
			panic(err)
		}
	})
	env.MustRun()
	sum := &stats.Summary{}
	for n := range mounts {
		node := n
		env.Spawn("creator", func(p *sim.Proc) {
			cx := cluster.Ctx(node, 1)
			for i := 0; i < per; i++ {
				start := p.Now()
				f, err := mounts[node].Create(p, cx, fmt.Sprintf("/shared/n%d-%d", node, i), 0644)
				if err != nil {
					panic(err)
				}
				f.Close(p)
				sum.Add(p.Now() - start)
			}
		})
	}
	env.MustRun()
	return sum.MeanMs()
}

func TestCOFSStatFastAndFlat(t *testing.T) {
	tb, d := core.Rig(t, 1, 4)
	m0 := d.Mounts[0]
	tb.Env.Spawn("prep", func(p *sim.Proc) {
		if err := m0.Mkdir(p, ctx, "/shared", 0777); err != nil {
			panic(err)
		}
		for i := 0; i < 2048; i++ {
			f, err := m0.Create(p, ctx, fmt.Sprintf("/shared/f%06d", i), 0644)
			if err != nil {
				panic(err)
			}
			f.Close(p)
		}
	})
	tb.Env.MustRun()
	sum := &stats.Summary{}
	for n := 0; n < 4; n++ {
		node := n
		tb.Env.Spawn("stat", func(p *sim.Proc) {
			cx := cluster.Ctx(node, 1)
			for i := node; i < 2048; i += 4 {
				start := p.Now()
				if _, err := d.Mounts[node].Stat(p, cx, fmt.Sprintf("/shared/f%06d", i)); err != nil {
					panic(err)
				}
				sum.Add(p.Now() - start)
			}
		})
	}
	tb.Env.MustRun()
	if got := sum.MeanMs(); got > 2.0 {
		t.Fatalf("COFS parallel stat %.3fms, paper reports ~1ms", got)
	}
}

func TestDeterministicDeployment(t *testing.T) {
	elapsed := func() time.Duration {
		tb, d := core.Rig(t, 1, 4)
		measureCreates(t, tb.Env, d.Mounts, 64)
		return tb.Env.Now()
	}
	if a, b := elapsed(), elapsed(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestAttrCacheExtensionSpeedsLocalReopens(t *testing.T) {
	// Section IV-B future work: with the client lease cache enabled,
	// repeated open+read of a recently used small file skips the
	// metadata round trips that made COFS lose the Table I small-file
	// cells.
	run := func(lease time.Duration) (time.Duration, int64) {
		tb, d := core.Rig(t, 1, 1, func(c *params.Config) { c.COFS.AttrLease = lease })
		m := d.Mounts[0]
		var elapsed time.Duration
		tb.Env.Spawn("t", func(p *sim.Proc) {
			f, err := m.Create(p, ctx, "/hot", 0644)
			if err != nil {
				panic(err)
			}
			f.WriteAt(p, 0, 1<<20)
			f.Close(p)
			start := p.Now()
			for i := 0; i < 20; i++ {
				g, err := m.Open(p, ctx, "/hot", vfs.OpenRead)
				if err != nil {
					panic(err)
				}
				if _, err := g.ReadAt(p, 0, 1<<20); err != nil {
					panic(err)
				}
				g.Close(p)
			}
			elapsed = p.Now() - start
		})
		tb.Env.MustRun()
		return elapsed, d.FSs[0].AttrCacheHits()
	}
	base, baseHits := run(0)
	cached, hits := run(30 * time.Second)
	if baseHits != 0 {
		t.Fatalf("disabled cache produced %d hits", baseHits)
	}
	if hits == 0 {
		t.Fatal("enabled cache never hit")
	}
	if cached >= base {
		t.Fatalf("attr cache did not speed reopens: %v vs %v", cached, base)
	}
}

func TestAttrCacheStaysCoherentOnLocalChanges(t *testing.T) {
	tb, d := core.Rig(t, 1, 1, core.Leases)
	m := d.Mounts[0]
	tb.Env.Spawn("t", func(p *sim.Proc) {
		f, _ := m.Create(p, ctx, "/f", 0644)
		f.Close(p)
		m.Stat(p, ctx, "/f") // warm the cache
		if _, err := m.Chmod(p, ctx, "/f", 0600); err != nil {
			panic(err)
		}
		attr, err := m.Stat(p, ctx, "/f")
		if err != nil || attr.Mode != 0600 {
			t.Errorf("stale attr after chmod: %+v %v", attr, err)
		}
		g, _ := m.Open(p, ctx, "/f", vfs.OpenWrite)
		g.WriteAt(p, 0, 777)
		g.Close(p)
		attr, _ = m.Stat(p, ctx, "/f")
		if attr.Size != 777 {
			t.Errorf("stale size after write-back: %d", attr.Size)
		}
	})
	tb.Env.MustRun()
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
