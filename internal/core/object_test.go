package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// These tests pin the order of a create (FS.Create, object.go): the
// client names the underlying object, creates it while the service
// commits the name, returns once both are done, and undoes either half
// when the other fails.

var errUnderFull = errors.New("test: underlying file system full")

// faultyUnder wraps a node's underlying file system: it counts creates,
// and fails them with err, after delay, while err is set.
type faultyUnder struct {
	vfs.Filesystem
	err     error
	delay   time.Duration
	creates int
}

func (u *faultyUnder) Create(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32) (vfs.Attr, vfs.Handle, error) {
	u.creates++
	if u.err != nil {
		p.Sleep(u.delay)
		return vfs.Attr{}, 0, u.err
	}
	return u.Filesystem.Create(p, ctx, dir, name, mode)
}

// withFaultyUnder routes node 0's underlying operations through a
// faultyUnder over the node's bare mount.
func withFaultyUnder(tb *cluster.Testbed, d *Deployment) *faultyUnder {
	u := &faultyUnder{Filesystem: tb.Mounts[0].FS()}
	d.FSs[0].under = vfs.NewMount(u, params.FUSEParams{})
	return u
}

// mkdirD makes /d from node 0 and returns its inode number.
func mkdirD(t *testing.T, tb *cluster.Testbed, d *Deployment) vfs.Ino {
	t.Helper()
	Play(t, tb, d, Mkdir(0, "/d", 0755))
	return Ino(t, tb, d, "/d")
}

// TestCreateOverlapsObject: with an underlying file system far slower
// than the metadata commit, a create costs the slower of its two halves,
// not their sum.
func TestCreateOverlapsObject(t *testing.T) {
	// RandomSubdirs 1: one bucket per (node, pid, parent).
	tb, d := Rig(t, 1, 1, slowUnder, func(c *params.Config) { c.COFS.RandomSubdirs = 1 })
	fs, ctx := d.FSs[0], cluster.Ctx(0, 1)
	dir := mkdirD(t, tb, d)
	Drained(tb, "overlap", func(p *sim.Proc) {
		if _, h, err := fs.Create(p, ctx, dir, "warm", 0644); err != nil || fs.Release(p, ctx, h) != nil {
			t.Fatalf("warm-up create: %v", err)
		}
		t0 := p.Now()
		if _, err := d.Service.Create(p, fs.sess, ctx, dir, "commit", vfs.TypeRegular, 0644, "", ""); err != nil {
			t.Fatal(err)
		}
		commit := p.Now() - t0
		probe, err := fs.objectPath(p, ctx, dir)
		if err != nil {
			t.Fatal(err)
		}
		t0 = p.Now()
		uf, err := fs.under.CreateExcl(p, fs.underCtx(), probe, 0600)
		if err != nil {
			t.Fatal(err)
		}
		object := p.Now() - t0
		if err := uf.Close(p); err != nil {
			t.Fatal(err)
		}
		t0 = p.Now()
		if _, _, err := fs.Create(p, ctx, dir, "f", 0644); err != nil {
			t.Fatal(err)
		}
		took := p.Now() - t0
		if took >= commit+object || took > max(commit, object)+tb.Cfg.FUSE.CrossingTime {
			t.Fatalf("create took %v with a %v commit and a %v object: want under their sum and within %v of their max",
				took, commit, object, tb.Cfg.FUSE.CrossingTime)
		}
	})
}

// TestCreateUndoesFailedObject: when the underlying create fails after
// the name committed, the name is taken back and the caller gets the
// underlying error; nothing is left for fsck to find.
func TestCreateUndoesFailedObject(t *testing.T) {
	tb, d := Rig(t, 1, 1)
	u := withFaultyUnder(tb, d)
	mkdirD(t, tb, d)
	u.err = errUnderFull
	if err := Race(tb, d, Create(0, "/d/f", 0644))[0]; !errors.Is(err, errUnderFull) {
		t.Fatalf("create over a failing underlay: %v, want %v", err, errUnderFull)
	}
	Expect(t, tb, d, vfs.ErrNotExist, Stat(0, "/d/f"))
	u.err = nil
	Play(t, tb, d, Create(0, "/d/f", 0644))
	CheckPlane(t, tb, d, PlaneFsck)
}

// TestCreateUndoSparesRenamedOnto: the undo of a create whose object
// failed removes the name only while it names the failed create's
// file. A file another client renamed onto the name in between keeps
// its name and its object.
func TestCreateUndoSparesRenamedOnto(t *testing.T) {
	tb, d := Rig(t, 1, 2)
	u := withFaultyUnder(tb, d)
	mkdirD(t, tb, d)
	Play(t, tb, d, Create(1, "/d/g", 0644))
	g := Ino(t, tb, d, "/d/g")
	// The object fails 50 ms in, long after the name committed; g is
	// renamed onto the name 20 ms in.
	u.err, u.delay = errUnderFull, 50*time.Millisecond
	errs := Race(tb, d, Create(0, "/d/f", 0644), At(20*time.Millisecond, Op(1, trace.Rename, "/d/g", "/d/f")))
	if !errors.Is(errs[0], errUnderFull) || errs[1] != nil {
		t.Fatalf("create over a failing underlay: %v, rename of g onto f: %v; want %v, nil", errs[0], errs[1], errUnderFull)
	}
	if f := Ino(t, tb, d, "/d/f"); f != g {
		t.Fatalf("f after the undo is inode %d, want the renamed file %d", f, g)
	}
	// The rename's own removal (of the replaced, never-made object)
	// runs on node 1; without it the rename came after the undo.
	if got := d.FSs[1].removing.Acquires; got != 1 {
		t.Fatalf("node 1 started %d removals, want 1: the rename replaced no file, so the test lost its overlap", got)
	}
	if got := d.FSs[0].removing.Acquires; got != 0 {
		t.Fatalf("node 0 started %d removals, want 0: the failed object was never made", got)
	}
	CheckPlane(t, tb, d, PlaneFsck)
}

// TestCreateRemovesObjectOfFailedCommit: when the commit fails, the
// object started beside it is handed to a background removal.
func TestCreateRemovesObjectOfFailedCommit(t *testing.T) {
	tb, d := Rig(t, 1, 1)
	u := withFaultyUnder(tb, d)
	fs, ctx := d.FSs[0], cluster.Ctx(0, 1)
	dir := mkdirD(t, tb, d)
	Drained(tb, "commit fails", func(p *sim.Proc) {
		if _, _, err := fs.Create(p, ctx, dir, "f", 0644); err != nil {
			t.Fatal(err)
		}
		// Leases are off: nothing on the client says f exists, so the
		// second create reaches the service, which refuses it.
		if _, _, err := fs.Create(p, ctx, dir, "f", 0644); err != vfs.ErrExist {
			t.Fatalf("second create of f: %v, want %v", err, vfs.ErrExist)
		}
	})
	if u.creates != 2 {
		t.Fatalf("%d underlying creates, want 2", u.creates)
	}
	if got := d.Counters().Get("core.removals"); got != 1 {
		t.Fatalf("core.removals = %d, want 1: the refused create's object", got)
	}
	CheckPlane(t, tb, d, PlaneFsck)
}

// TestCreateOfLeasedNameExists: a create of a name the client holds a
// leased positive dentry for fails with ErrExist before any request or
// underlying create.
func TestCreateOfLeasedNameExists(t *testing.T) {
	tb, d := Rig(t, 1, 1, func(c *params.Config) { c.COFS.AttrLease = time.Second })
	u := withFaultyUnder(tb, d)
	fs, ctx := d.FSs[0], cluster.Ctx(0, 1)
	dir := mkdirD(t, tb, d)
	Drained(tb, "leased", func(p *sim.Proc) {
		if _, _, err := fs.Create(p, ctx, dir, "f", 0644); err != nil {
			t.Fatal(err)
		}
		// The create leased f's dentry; a stat leases /d's attributes,
		// which show ctx may write /d.
		if _, err := fs.Getattr(p, ctx, dir); err != nil {
			t.Fatal(err)
		}
		ops, creates, calls := fs.Stats.ServiceOps, u.creates, d.Counters().Get("rpc.client.calls")
		t0 := p.Now()
		if _, _, err := fs.Create(p, ctx, dir, "f", 0644); err != vfs.ErrExist {
			t.Fatalf("create of a leased name: %v, want %v", err, vfs.ErrExist)
		}
		if fs.Stats.ServiceOps != ops || u.creates != creates || d.Counters().Get("rpc.client.calls") != calls || p.Now() != t0 {
			t.Fatalf("create of a leased name cost %d service ops, %d underlying creates, %d calls and %v",
				fs.Stats.ServiceOps-ops, u.creates-creates, d.Counters().Get("rpc.client.calls")-calls, p.Now()-t0)
		}
	})
	CheckPlane(t, tb, d, PlaneFsck)
}

// TestCreateInReadOnlyDirRefused: a create in a directory the caller
// may not write fails with ErrPerm whether or not the client holds
// leases on the directory and the name, so an O_CREAT open of an
// existing file there never falls back to truncating it.
func TestCreateInReadOnlyDirRefused(t *testing.T) {
	for _, lease := range []time.Duration{0, time.Second} {
		t.Run(fmt.Sprintf("lease=%v", lease), func(t *testing.T) {
			tb, d := Rig(t, 1, 1, func(c *params.Config) { c.COFS.AttrLease = lease })
			fs, m, ctx := d.FSs[0], d.Mounts[0], cluster.Ctx(0, 1)
			dir := mkdirD(t, tb, d)
			Drained(tb, "read-only dir", func(p *sim.Proc) {
				f, err := m.Create(p, ctx, "/d/f", 0666)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(p, 0, 4096); err != nil || f.Close(p) != nil {
					t.Fatalf("write /d/f: %v", err)
				}
				if _, err := fs.Setattr(p, ctx, dir, vfs.SetAttr{HasMode: true, Mode: 0555}); err != nil {
					t.Fatal(err)
				}
				// Lease /d's attributes and f's dentry where leases run.
				if _, err := fs.Getattr(p, ctx, dir); err != nil {
					t.Fatal(err)
				}
				if _, err := fs.Lookup(p, ctx, dir, "f"); err != nil {
					t.Fatal(err)
				}
				if _, _, err := fs.Create(p, ctx, dir, "f", 0666); err != vfs.ErrPerm {
					t.Fatalf("create of f in a 0555 directory: %v, want %v", err, vfs.ErrPerm)
				}
				if _, err := m.Create(p, ctx, "/d/f", 0666); err != vfs.ErrPerm {
					t.Fatalf("O_CREAT open of /d/f in a 0555 directory: %v, want %v", err, vfs.ErrPerm)
				}
				if attr, err := m.Stat(p, ctx, "/d/f"); err != nil || attr.Size != 4096 {
					t.Fatalf("/d/f after the refused creates: %+v, %v; want 4096 bytes", attr, err)
				}
			})
			CheckPlane(t, tb, d, PlaneFsck)
		})
	}
}

// TestObjectNamesSurviveReattach: a node re-attached by a fresh NewFS
// restarts its create count, but not its objects' names, so it never
// truncates an object the earlier client created.
func TestObjectNamesSurviveReattach(t *testing.T) {
	// RandomSubdirs 1: both clients fill the same bucket.
	tb, d := Rig(t, 1, 1, func(c *params.Config) { c.COFS.RandomSubdirs = 1 })
	old := d.FSs[0]
	fresh := NewFS(d.Service, tb.Nodes[0], 0, tb.Mounts[0], HashPlacement{Fanout: tb.Cfg.COFS.DirFanout, RandomSubdirs: 1},
		tb.Cfg.COFS, tb.Env.RNG("cofs.place.0"))
	ctx := cluster.Ctx(0, 1)
	var paths [2]string
	dir := mkdirD(t, tb, d)
	Drained(tb, "reattach", func(p *sim.Proc) {
		for i, fs := range []*FS{old, fresh} {
			attr, h, err := fs.Create(p, ctx, dir, fmt.Sprintf("f%d", i), 0644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Write(p, ctx, h, 0, 4096); err != nil {
				t.Fatal(err)
			}
			if err := fs.Release(p, ctx, h); err != nil {
				t.Fatal(err)
			}
			paths[i], _ = d.Service.Mapping(attr.Ino)
		}
		if paths[0] == paths[1] {
			t.Fatalf("both clients named their object %s", paths[0])
		}
		for _, upath := range paths {
			if attr, err := tb.Mounts[0].Stat(p, vfs.Ctx{UID: 0}, upath); err != nil || attr.Size != 4096 {
				t.Fatalf("object %s: %+v, %v; want 4096 bytes", upath, attr, err)
			}
		}
	})
	CheckPlane(t, tb, d, PlaneFsck)
}

// TestCrashWithCreatesInFlight crashes and recovers the metadata plane
// while two nodes create files, at instants spread over the creates.
// Commits are synchronous here (LogFlushInterval 0), and a create is
// acknowledged only once its object exists: after recovery and a drain,
// fsck finds no name without its object. Whether every acknowledged
// name comes back is the store's promise, not the create's, and it does
// not hold yet: a crash during a synchronous commit's disk write loses
// the record but still acknowledges it (mdb.DB.commitLog).
func TestCrashWithCreatesInFlight(t *testing.T) {
	for at := time.Millisecond; at <= 9*time.Millisecond; at += 1100 * time.Microsecond {
		tb, d := Rig(t, 5, 2, func(c *params.Config) { c.COFS.LogFlushInterval = 0 })
		Play(t, tb, d, Mkdir(0, "/d", 0777))
		inFlight, hit := 0, 0
		for n := 0; n < 2; n++ {
			m, ctx := d.Mounts[n], cluster.Ctx(n, 1)
			tb.Env.Spawn("creator", func(p *sim.Proc) {
				for i := 0; i < 20; i++ {
					inFlight++
					f, err := m.Create(p, ctx, fmt.Sprintf("/d/n%d-%02d", n, i), 0644)
					inFlight--
					if err != nil {
						continue // the outage the crash causes
					}
					if err := f.Close(p); err != nil {
						t.Error(err)
					}
				}
			})
		}
		tb.Env.SpawnAfter("crash", at, func(p *sim.Proc) {
			hit = inFlight
			d.Service.Crash()
			d.Service.Recover(p)
			d.Service.AdoptIDCounter()
		})
		tb.Run()
		Drained(tb, "check", func(p *sim.Proc) {
			d.DrainRemovals(p)
			if rep := Fsck(p, d.Service, tb.Mounts[0]); len(rep.Missing) != 0 || rep.TableErr != nil {
				t.Fatalf("crash at %v: %v", at, rep)
			}
		})
		if hit == 0 {
			t.Fatalf("crash at %v found no create in flight", at)
		}
	}
}
