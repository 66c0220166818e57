package core

import (
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// These tests pin the client's handle pool (FS.openHandle, FS.Release):
// a released handle's state serves the next open, but its id never
// comes back, and an I/O call still running on a handle keeps its state
// from being handed on.

// writeFile creates name in the root directory through fs with size
// bytes written and returns its inode.
func writeFile(t *testing.T, p *sim.Proc, fs *FS, name string, size int64) vfs.Ino {
	t.Helper()
	ctx := cluster.Ctx(0, 1)
	attr, h, err := fs.Create(p, ctx, RootID, name, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(p, ctx, h, 0, size); err != nil {
		t.Fatal(err)
	}
	if err := fs.Release(p, ctx, h); err != nil {
		t.Fatal(err)
	}
	return attr.Ino
}

// TestReleasedHandleIsStale: after Release(h1) the next Open reuses h1's
// state under a new id, so every call on h1 fails with ErrBadHandle and
// h2 reads its own file.
func TestReleasedHandleIsStale(t *testing.T) {
	tb, d := Rig(t, 1, 1)
	fs, ctx := d.FSs[0], cluster.Ctx(0, 1)
	Drained(tb, "stale", func(p *sim.Proc) {
		a := writeFile(t, p, fs, "a", 4096)
		b := writeFile(t, p, fs, "b", 8192)
		h1, err := fs.Open(p, ctx, a, vfs.OpenRead|vfs.OpenWrite)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := fs.Read(p, ctx, h1, 0, 1<<20); err != nil || n != 4096 {
			t.Fatalf("read of a = %d, %v; want 4096", n, err)
		}
		state := fs.handles[h1]
		if err := fs.Release(p, ctx, h1); err != nil {
			t.Fatal(err)
		}
		h2, err := fs.Open(p, ctx, b, vfs.OpenRead)
		if err != nil {
			t.Fatal(err)
		}
		if fs.handles[h2] != state {
			t.Fatal("the open after a release did not reuse the released handle's state")
		}
		if h2 == h1 {
			t.Fatalf("the open after a release reused handle id %d", h1)
		}
		if _, err := fs.Read(p, ctx, h1, 0, 1<<20); err != vfs.ErrBadHandle {
			t.Errorf("read of released handle: %v, want ErrBadHandle", err)
		}
		if _, err := fs.Write(p, ctx, h1, 0, 1); err != vfs.ErrBadHandle {
			t.Errorf("write of released handle: %v, want ErrBadHandle", err)
		}
		if err := fs.Fsync(p, ctx, h1); err != vfs.ErrBadHandle {
			t.Errorf("fsync of released handle: %v, want ErrBadHandle", err)
		}
		if err := fs.Release(p, ctx, h1); err != vfs.ErrBadHandle {
			t.Errorf("second release of a handle: %v, want ErrBadHandle", err)
		}
		if n, err := fs.Read(p, ctx, h2, 0, 1<<20); err != nil || n != 8192 {
			t.Errorf("read of b through the reused state = %d, %v; want 8192", n, err)
		}
		if err := fs.Release(p, ctx, h2); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReleaseDuringReadSparesHandle: a Release that returns while
// another process's read of the same handle is still running does not
// hand the handle's state to the next open.
func TestReleaseDuringReadSparesHandle(t *testing.T) {
	tb, d := Rig(t, 1, 2)
	fs, ctx := d.FSs[1], cluster.Ctx(1, 1)
	var a, b vfs.Ino
	Drained(tb, "files", func(p *sim.Proc) {
		a = writeFile(t, p, d.FSs[0], "a", 1<<20)
		b = writeFile(t, p, d.FSs[0], "b", 8192)
	})
	var h1 vfs.Handle
	var state *cofsHandle
	Drained(tb, "open", func(p *sim.Proc) {
		var err error
		if h1, err = fs.Open(p, ctx, a, vfs.OpenRead); err != nil {
			t.Fatal(err)
		}
		state = fs.handles[h1]
	})
	tb.Env.Spawn("reader", func(p *sim.Proc) {
		// Node 1 holds none of a's data: the read fetches it from the
		// servers, far longer than the closer below takes.
		_, _ = fs.Read(p, ctx, h1, 0, 1<<20)
	})
	tb.Env.Spawn("closer", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		if state.users != 1 {
			t.Fatalf("the read is not in flight at the release (users %d)", state.users)
		}
		if err := fs.Release(p, ctx, h1); err != nil {
			t.Fatal(err)
		}
		h2, err := fs.Open(p, ctx, b, vfs.OpenRead)
		if err != nil {
			t.Fatal(err)
		}
		if fs.handles[h2] == state {
			t.Error("a handle with a read in flight was handed to the next open")
		}
		if state.users != 1 {
			t.Fatalf("the read ended before the next open (users %d)", state.users)
		}
		if n, err := fs.Read(p, ctx, h2, 0, 1<<20); err != nil || n != 8192 {
			t.Errorf("read of b = %d, %v; want 8192", n, err)
		}
		if err := fs.Release(p, ctx, h2); err != nil {
			t.Fatal(err)
		}
	})
	tb.Run()
}

// TestMountOpenReadCloseAllocs pins a warm open, read and close of a
// file through the COFS mount, as an application issues them: the mount
// hands its File to an inlined caller, the client's handle comes from
// its pool and holds the underlying file by value, so the cycle
// allocates nothing.
func TestMountOpenReadCloseAllocs(t *testing.T) {
	skipUnderRace(t)
	tb, d := Rig(t, 1, 1)
	m, ctx := d.Mounts[0], cluster.Ctx(0, 1)
	Drained(tb, "pin", func(p *sim.Proc) {
		writeFile(t, p, d.FSs[0], "f", 64<<10)
		cycle := func() {
			f, err := m.Open(p, ctx, "/f", vfs.OpenRead)
			if err != nil {
				panic(err)
			}
			if n, err := f.ReadAt(p, 0, 64<<10); err != nil || n != 64<<10 {
				panic(err)
			}
			if err := f.Close(p); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 1000; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(1000, cycle); n != 0 {
			t.Errorf("open+read+close through the mount allocates %v, want 0", n)
		}
	})
}
