package core_test

import (
	"fmt"
	"strings"
	"testing"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

func runFsck(tb *cluster.Testbed, d *core.Deployment) *core.FsckReport {
	var rep *core.FsckReport
	core.Drained(tb, "fsck", func(p *sim.Proc) { rep = core.Fsck(p, d.Service, tb.Mounts[0]) })
	return rep
}

func TestFsckCleanAfterWorkload(t *testing.T) {
	tb, d := core.Rig(t, 31, 2)
	core.Play(t, tb, d, core.Dir(0, "/data", 0777, 40, "f%03d", 1024)...)
	rep := runFsck(tb, d)
	if !rep.OK() {
		t.Fatalf("fsck not clean:\n%s", rep)
	}
	if rep.Mappings != 40 || rep.UnderFiles != 40 {
		t.Errorf("mappings=%d underFiles=%d, want 40/40", rep.Mappings, rep.UnderFiles)
	}
	if !strings.Contains(rep.String(), "clean") {
		t.Errorf("report does not say clean:\n%s", rep)
	}
}

func TestFsckDetectsMissingUnderlying(t *testing.T) {
	tb, d := core.Rig(t, 31, 2)
	core.Play(t, tb, d, core.Dir(0, "/data", 0777, 10, "f%03d", 1024)...)
	// Damage: delete one underlying file behind COFS's back.
	var victim string
	d.Service.EachMapping(func(id vfs.Ino, upath string) {
		if victim == "" {
			victim = upath
		}
	})
	tb.Env.Spawn("damage", func(p *sim.Proc) {
		if err := tb.Mounts[0].Unlink(p, vfs.Ctx{UID: 0}, victim); err != nil {
			panic(err)
		}
	})
	tb.Run()
	rep := runFsck(tb, d)
	if rep.OK() {
		t.Fatal("fsck missed a deleted underlying file")
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != victim {
		t.Errorf("missing = %v, want [%s]", rep.Missing, victim)
	}
	if len(rep.Orphans) != 0 {
		t.Errorf("unexpected orphans: %v", rep.Orphans)
	}
}

func TestFsckDetectsOrphan(t *testing.T) {
	tb, d := core.Rig(t, 31, 2)
	core.Play(t, tb, d, core.Dir(0, "/data", 0777, 10, "f%03d", 1024)...)
	// Damage: drop a stray file into an object bucket directly.
	var bucket string
	d.Service.EachMapping(func(id vfs.Ino, upath string) {
		if bucket == "" {
			bucket = upath[:strings.LastIndex(upath, "/")]
		}
	})
	stray := bucket + "/stray"
	tb.Env.Spawn("damage", func(p *sim.Proc) {
		f, err := tb.Mounts[0].Create(p, vfs.Ctx{UID: 0}, stray, 0644)
		if err != nil {
			panic(err)
		}
		f.Close(p)
	})
	tb.Run()
	rep := runFsck(tb, d)
	if rep.OK() {
		t.Fatal("fsck missed an orphan")
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0] != "/"+stray {
		t.Errorf("orphans = %v, want [/%s]", rep.Orphans, stray)
	}
}

func TestFsckAfterRemoveCycleStaysClean(t *testing.T) {
	tb, d := core.Rig(t, 31, 2)
	core.Play(t, tb, d, core.Dir(0, "/data", 0777, 20, "f%03d", 1024)...)
	ctx := cluster.Ctx(1, 1)
	tb.Env.Spawn("churn", func(p *sim.Proc) {
		m := d.Mounts[1]
		for i := 0; i < 20; i += 2 {
			if err := m.Unlink(p, ctx, fmt.Sprintf("/data/f%03d", i)); err != nil {
				panic(err)
			}
		}
		if err := m.Rename(p, ctx, "/data/f001", "/data/renamed"); err != nil {
			panic(err)
		}
	})
	tb.Run()
	rep := runFsck(tb, d)
	if !rep.OK() {
		t.Fatalf("fsck not clean after churn:\n%s", rep)
	}
	if rep.Mappings != 10 || rep.UnderFiles != 10 {
		t.Errorf("mappings=%d underFiles=%d, want 10/10", rep.Mappings, rep.UnderFiles)
	}
}
