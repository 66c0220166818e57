package vfs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cofs/internal/params"
	"cofs/internal/sim"
)

func TestPathNormalization(t *testing.T) {
	m := bareMount(NewMemFS())
	run(t, func(p *sim.Proc) {
		if err := m.MkdirAll(p, ctx, "/a/b", 0755); err != nil {
			t.Fatal(err)
		}
		f, err := m.Create(p, ctx, "/a/b/c", 0644)
		if err != nil {
			t.Fatal(err)
		}
		f.Close(p)
		for _, variant := range []string{
			"/a/b/c", "a/b/c", "//a//b//c", "/a/./b/./c", "/a/b/c/",
		} {
			if _, err := m.Stat(p, ctx, variant); err != nil {
				t.Fatalf("Stat(%q) = %v", variant, err)
			}
		}
	})
}

func TestRootStat(t *testing.T) {
	m := bareMount(NewMemFS())
	run(t, func(p *sim.Proc) {
		for _, root := range []string{"/", "", "."} {
			attr, err := m.Stat(p, ctx, root)
			if err != nil || attr.Type != TypeDir {
				t.Fatalf("Stat(%q) = %+v, %v", root, attr, err)
			}
		}
	})
}

func TestNameTooLong(t *testing.T) {
	m := bareMount(NewMemFS())
	long := strings.Repeat("x", MaxNameLen+1)
	run(t, func(p *sim.Proc) {
		if _, err := m.Create(p, ctx, "/"+long, 0644); err != ErrNameTooLong {
			t.Fatalf("create long name: %v", err)
		}
		if _, err := m.Stat(p, ctx, "/"+long); err != ErrNameTooLong {
			t.Fatalf("stat long name: %v", err)
		}
	})
}

func TestCreateAtRootPathInvalid(t *testing.T) {
	m := bareMount(NewMemFS())
	run(t, func(p *sim.Proc) {
		if _, err := m.Create(p, ctx, "/", 0644); err != ErrInvalid {
			t.Fatalf("create at root path: %v", err)
		}
		if err := m.Unlink(p, ctx, ""); err != ErrInvalid {
			t.Fatalf("unlink empty path: %v", err)
		}
	})
}

func TestEntryTimeoutExpiry(t *testing.T) {
	fs := NewMemFS()
	fuse := params.FUSEParams{CrossingTime: time.Microsecond, EntryTimeout: 10 * time.Millisecond}
	m := NewMount(fs, fuse)
	run(t, func(p *sim.Proc) {
		f, _ := m.Create(p, ctx, "/f", 0644)
		f.Close(p)
		m.Stat(p, ctx, "/f") // caches the entry
		before := m.Ops
		m.Stat(p, ctx, "/f") // cached: 1 getattr request
		within := m.Ops - before
		p.Sleep(20 * time.Millisecond) // expire the dentry
		before = m.Ops
		m.Stat(p, ctx, "/f") // expired: 1 lookup request
		after := m.Ops - before
		if within != 1 || after != 1 {
			t.Fatalf("ops within=%d after=%d, want 1 and 1", within, after)
		}
		// Key point: after expiry the resolution was re-fetched, so a
		// third immediate stat is cached again.
		before = m.Ops
		m.Stat(p, ctx, "/f")
		if m.Ops-before != 1 {
			t.Fatalf("re-cached stat ops=%d", m.Ops-before)
		}
	})
}

func TestRetryStaleRecoversAcrossMounts(t *testing.T) {
	// Two mounts over one filesystem: mount B caches a name, mount A
	// deletes and recreates it, mount B's next access must transparently
	// recover via invalidate-and-retry.
	fs := NewMemFS()
	a := bareMount(fs)
	b := bareMount(fs)
	run(t, func(p *sim.Proc) {
		f, _ := a.Create(p, ctx, "/x", 0644)
		f.Close(p)
		if _, err := b.Stat(p, ctx, "/x"); err != nil {
			t.Fatal(err)
		}
		if err := a.Unlink(p, ctx, "/x"); err != nil {
			t.Fatal(err)
		}
		g, _ := a.Create(p, ctx, "/x", 0600)
		g.Close(p)
		attr, err := b.Stat(p, ctx, "/x")
		if err != nil {
			t.Fatalf("stale recovery failed: %v", err)
		}
		if attr.Mode != 0600 {
			t.Fatalf("got stale attrs: %+v", attr)
		}
		// And a genuinely deleted file still errors after the retry.
		if err := a.Unlink(p, ctx, "/x"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Stat(p, ctx, "/x"); err != ErrNotExist {
			t.Fatalf("deleted file: %v", err)
		}
	})
}

// TestCreateExclNeverTruncates: CreateExcl of an existing name fails
// with ErrExist and leaves the file as it was, where Create truncates.
func TestCreateExclNeverTruncates(t *testing.T) {
	m := bareMount(NewMemFS())
	run(t, func(p *sim.Proc) {
		f, err := m.CreateExcl(p, ctx, "/x", 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, 0, 100); err != nil {
			t.Fatal(err)
		}
		f.Close(p)
		if _, err := m.CreateExcl(p, ctx, "/x", 0644); err != ErrExist {
			t.Fatalf("CreateExcl of an existing name: %v, want %v", err, ErrExist)
		}
		if attr, err := m.Stat(p, ctx, "/x"); err != nil || attr.Size != 100 {
			t.Fatalf("after CreateExcl: %+v, %v; want 100 bytes", attr, err)
		}
		g, err := m.Create(p, ctx, "/x", 0644)
		if err != nil {
			t.Fatal(err)
		}
		g.Close(p)
		if attr, err := m.Stat(p, ctx, "/x"); err != nil || attr.Size != 0 {
			t.Fatalf("after Create: %+v, %v; want 0 bytes", attr, err)
		}
	})
}

func TestFsyncAndDoubleClose(t *testing.T) {
	m := bareMount(NewMemFS())
	run(t, func(p *sim.Proc) {
		f, _ := m.Create(p, ctx, "/f", 0644)
		f.WriteAt(p, 0, 10)
		if err := f.Fsync(p); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err != ErrBadHandle {
			t.Fatalf("double close: %v", err)
		}
		if err := f.Fsync(p); err != ErrBadHandle {
			t.Fatalf("fsync after close: %v", err)
		}
	})
}

func TestNegativeIO(t *testing.T) {
	m := bareMount(NewMemFS())
	run(t, func(p *sim.Proc) {
		f, _ := m.Create(p, ctx, "/f", 0644)
		defer f.Close(p)
		if _, err := f.WriteAt(p, -1, 10); err != ErrInvalid {
			t.Fatalf("negative offset: %v", err)
		}
		if _, err := f.ReadAt(p, 0, -5); err != ErrInvalid {
			t.Fatalf("negative length: %v", err)
		}
	})
}

// TestReaddirPrimesDcache: after a listing, stat-ing the entries must
// not call Lookup again (READDIRPLUS-style dcache priming).
func TestReaddirPrimesDcache(t *testing.T) {
	env := sim.NewEnv(1)
	fs := &lookupCounter{MemFS: NewMemFS()}
	m := NewMount(fs, params.FUSEParams{})
	ctx := Ctx{UID: 1000, GID: 100}
	env.Spawn("t", func(p *sim.Proc) {
		if err := m.Mkdir(p, ctx, "/d", 0755); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 8; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/d/f%d", i), 0644)
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			f.Close(p)
		}
		// A second mount has a cold dcache.
		m2 := NewMount(fs, params.FUSEParams{})
		ents, err := m2.Readdir(p, ctx, "/d")
		if err != nil || len(ents) != 8 {
			t.Errorf("readdir: %v (%d entries)", err, len(ents))
			return
		}
		before := fs.lookups
		for _, e := range ents {
			if _, err := m2.Stat(p, ctx, "/d/"+e.Name); err != nil {
				t.Errorf("stat %s: %v", e.Name, err)
			}
		}
		if got := fs.lookups - before; got != 0 {
			t.Errorf("stat sweep performed %d Lookups, want 0 (dcache primed by readdir)", got)
		}
	})
	env.MustRun()
}

// lookupCounter wraps MemFS counting Lookup calls.
type lookupCounter struct {
	*MemFS
	lookups int
}

func (lc *lookupCounter) Lookup(p *sim.Proc, ctx Ctx, dir Ino, name string) (Attr, error) {
	lc.lookups++
	return lc.MemFS.Lookup(p, ctx, dir, name)
}
