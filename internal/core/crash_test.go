package core_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// TestCrashMidWorkloadRecovery injects a metadata-service crash in the
// middle of a parallel create workload, recovers from the WAL, and
// verifies the recovered namespace is exactly a prefix-consistent state:
// every surviving file is fully intact (stat matches what was written),
// fsck is clean apart from orphans in the lost window, and the service
// accepts new work without id collisions.
func TestCrashMidWorkloadRecovery(t *testing.T) {
	tb, d := core.Rig(t, 41, 4, func(c *params.Config) { c.COFS.LogFlushInterval = 5 * time.Millisecond }) // tight window
	ctx := func(n int) vfs.Ctx { return cluster.Ctx(n, 1) }

	tb.Env.Spawn("mkdir", func(p *sim.Proc) {
		if err := d.Mounts[0].MkdirAll(p, ctx(0), "/out", 0777); err != nil {
			panic(err)
		}
	})
	tb.Run()

	// Four nodes create files; a saboteur crashes the service partway.
	const perNode = 40
	for n := 0; n < 4; n++ {
		n := n
		tb.Env.Spawn("writer", func(p *sim.Proc) {
			m := d.Mounts[n]
			for i := 0; i < perNode; i++ {
				f, err := m.Create(p, ctx(n), fmt.Sprintf("/out/n%d-%03d", n, i), 0644)
				if err != nil {
					// Creates racing the crash may fail; that is the
					// application-visible outage, not a bug.
					return
				}
				f.WriteAt(p, 0, 2048)
				if err := f.Close(p); err != nil {
					return
				}
			}
		})
	}
	tb.Env.SpawnAfter("saboteur", 60*time.Millisecond, func(p *sim.Proc) {
		d.Service.Crash()
		d.Service.Recover(p)
		d.Service.AdoptIDCounter()
	})
	tb.Run()

	// Whatever survived must be fully consistent.
	var surviving []vfs.DirEntry
	tb.Env.Spawn("audit", func(p *sim.Proc) {
		m := d.Mounts[3]
		ents, err := m.Readdir(p, ctx(3), "/out")
		if err != nil {
			t.Errorf("readdir after recovery: %v", err)
			return
		}
		surviving = ents
		for _, e := range ents {
			attr, err := m.Stat(p, ctx(3), "/out/"+e.Name)
			if err != nil {
				t.Errorf("stat %s: %v", e.Name, err)
				continue
			}
			if attr.Size != 2048 && attr.Size != 0 {
				t.Errorf("%s size = %d, want 0 or 2048", e.Name, attr.Size)
			}
		}
	})
	tb.Run()
	if len(surviving) == 0 {
		t.Fatal("nothing survived the crash — the flush window ate everything")
	}
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatalf("recovered namespace inconsistent: %v", err)
	}

	// fsck: mappings must all resolve (writes before the crash reached
	// the underlying FS synchronously); orphans are permitted — files
	// whose create committed to the underlying FS but whose metadata
	// was in the lost flush window.
	var rep *core.FsckReport
	tb.Env.Spawn("fsck", func(p *sim.Proc) {
		rep = core.Fsck(p, d.Service, tb.Mounts[0])
	})
	tb.Run()
	if len(rep.Missing) != 0 {
		t.Errorf("recovered mappings point at missing files: %v", rep.Missing)
	}
	if rep.TableErr != nil {
		t.Errorf("fsck table error: %v", rep.TableErr)
	}
	t.Logf("survived=%d orphans-in-lost-window=%d", len(surviving), len(rep.Orphans))

	// The service serves new work with fresh ids.
	tb.Env.Spawn("post", func(p *sim.Proc) {
		m := d.Mounts[0]
		f, err := m.Create(p, ctx(0), "/out/after-recovery", 0644)
		if err != nil {
			t.Errorf("create after recovery: %v", err)
			return
		}
		f.Close(p)
	})
	tb.Run()
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatalf("post-recovery namespace inconsistent: %v", err)
	}
}

// TestCrashAttrCacheNoResurrection repeats the crash scenario with the
// lease cache enabled on clients: attributes cached before the crash
// must never resurrect files the recovery lost once their lease runs
// out.
func TestCrashAttrCacheNoResurrection(t *testing.T) {
	tb, d := core.Rig(t, 43, 2, func(c *params.Config) { c.COFS.LogFlushInterval = 50 * time.Millisecond }, core.Leases)
	ctx := cluster.Ctx(0, 1)

	var lostIno vfs.Ino
	tb.Env.Spawn("work", func(p *sim.Proc) {
		m := d.Mounts[0]
		if err := m.Mkdir(p, ctx, "/w", 0777); err != nil {
			panic(err)
		}
		// Let the flusher cover the mkdir, then create a file that
		// stays inside the flush window.
		p.Sleep(2 * tb.Cfg.COFS.LogFlushInterval)
		f, err := m.Create(p, ctx, "/w/doomed", 0644)
		if err != nil {
			panic(err)
		}
		f.Close(p)
		attr, err := m.Stat(p, ctx, "/w/doomed") // warm the attr cache
		if err != nil {
			panic(err)
		}
		lostIno = attr.Ino
		d.Service.Crash()
		d.Service.Recover(p)
		d.Service.AdoptIDCounter()
	})
	tb.Run()

	tb.Env.Spawn("verify", func(p *sim.Proc) {
		m := d.Mounts[0]
		// Within the cache windows the ghost may still resolve — the
		// kernel dentry cache (FUSE entry_timeout) and the client's
		// leased entries both legitimately serve it: the crash lost the
		// shard's lease table, so nothing recalls them, exactly as a
		// real FUSE/NFS deployment would after an unannounced service
		// restart. Consistency is bounded by the lease term.
		p.Sleep(tb.Cfg.FUSE.EntryTimeout + tb.Cfg.COFS.AttrLease)
		if _, err := m.Stat(p, ctx, "/w/doomed"); err == nil {
			t.Error("file in the lost flush window still resolves after all cache windows expired")
		}
		_ = lostIno
		// And the namespace accepts the name again.
		f, err := m.Create(p, ctx, "/w/doomed", 0644)
		if err != nil {
			t.Errorf("re-create after recovery: %v", err)
			return
		}
		f.Close(p)
	})
	tb.Run()
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
