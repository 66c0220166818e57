package core

import (
	"testing"

	"cofs/internal/cluster"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// These tests pin opens served from the client cache (FS.Open): while
// node 1 holds a valid attribute entry, opening the file costs no round
// trip, and the underlying mapping the entry lacks rides the first read
// or write (FS.ensureUnderFile) or, for O_TRUNC, the truncating Setattr.

// openRig deploys 2 nodes on 2 shards with the lease cache. Node 0
// writes 4 KiB into /f and into /g; node 1 then stats /f, which caches
// /f's attributes and dentry but not its mapping. It returns /f's id.
func openRig(t *testing.T) (*cluster.Testbed, *Deployment, vfs.Ino) {
	t.Helper()
	tb, d := Rig(t, 1, 2, Shards(2), Leases)
	Play(t, tb, d, Write(0, "/f", 4096), Write(0, "/g", 4096))
	var ino vfs.Ino
	Drained(tb, "stat", func(p *sim.Proc) {
		a, err := d.Mounts[1].Stat(p, cluster.Ctx(1, 1), "/f")
		if err != nil {
			t.Fatal(err)
		}
		ino = a.Ino
	})
	if e, ok := d.FSs[1].attrs.attrs.Peek(ino); !ok || e.upath != "" {
		t.Fatalf("node 1's entry for /f: %+v, present %v; want attributes without the mapping", e, ok)
	}
	return tb, d, ino
}

// sessionCalls is every RPC node n's session has sent.
func sessionCalls(d *Deployment, n int) int64 {
	var calls int64
	for _, c := range d.FSs[n].sess.conns {
		calls += c.Stats.Calls
	}
	return calls
}

func mustOpen(t *testing.T, p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, path string, flags vfs.OpenFlags) *vfs.File {
	t.Helper()
	f, err := m.Open(p, ctx, path, flags)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return f
}

func mustRead(t *testing.T, p *sim.Proc, f *vfs.File) {
	t.Helper()
	if n, err := f.ReadAt(p, 0, 4096); n != 4096 || err != nil {
		t.Fatalf("read %d bytes, %v; want 4096", n, err)
	}
}

// TestOpenFromCachedEntryCostsNoCall: an open of a file whose leased
// attributes node 1 holds sends nothing; the first read sends the one
// OpenInfo that fetches the mapping into the entry, and every other
// handle's read then finds it there.
func TestOpenFromCachedEntryCostsNoCall(t *testing.T) {
	t.Run("lease", func(t *testing.T) {
		tb, d, ino := openRig(t)
		upath, _ := d.Service.Mapping(ino)
		m, ctx := d.Mounts[1], cluster.Ctx(1, 1)
		Drained(tb, "open", func(p *sim.Proc) {
			step := func(what string, want int64, fn func()) {
				t.Helper()
				before := sessionCalls(d, 1)
				fn()
				if got := sessionCalls(d, 1) - before; got != want {
					t.Fatalf("%s: %d calls, want %d", what, got, want)
				}
			}
			step("metadata-only open/close", 0, func() {
				mustOpen(t, p, m, ctx, "/f", vfs.OpenRead).Close(p)
			})
			var f, g *vfs.File
			step("open of two handles", 0, func() {
				f = mustOpen(t, p, m, ctx, "/f", vfs.OpenRead)
				g = mustOpen(t, p, m, ctx, "/f", vfs.OpenRead)
			})
			step("first read", 1, func() { mustRead(t, p, f) })
			if e, _ := d.FSs[1].attrs.attrs.Peek(ino); e.upath != upath {
				t.Fatalf("entry mapping after the first read = %q, want %q", e.upath, upath)
			}
			step("second handle's read", 0, func() { mustRead(t, p, g) })
			step("closes", 0, func() {
				f.Close(p)
				g.Close(p)
			})
			step("open and read of a third handle", 0, func() {
				h := mustOpen(t, p, m, ctx, "/f", vfs.OpenRead)
				mustRead(t, p, h)
				h.Close(p)
			})
		})
		if n := d.FSs[1].Stats.UnderOpens; n != 3 {
			t.Fatalf("underlying opens = %d, want 3 (one per handle that read)", n)
		}
	})
}

// TestOpenTruncFromLeaseTruncatesMappedFile: an O_TRUNC open of a leased
// entry without the mapping costs the truncating Setattr alone, whose
// reply carries the mapping, and truncates that underlying file.
func TestOpenTruncFromLeaseTruncatesMappedFile(t *testing.T) {
	tb, d, ino := openRig(t)
	upath, _ := d.Service.Mapping(ino)
	Drained(tb, "trunc", func(p *sim.Proc) {
		before := sessionCalls(d, 1)
		f := mustOpen(t, p, d.Mounts[1], cluster.Ctx(1, 1), "/f", vfs.OpenWrite|vfs.OpenTrunc)
		if got := sessionCalls(d, 1) - before; got != 1 {
			t.Fatalf("O_TRUNC open: %d calls, want 1 (the truncating Setattr)", got)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		for n, under := range tb.Mounts {
			if a, err := under.Stat(p, vfs.Ctx{UID: 0}, upath); err != nil || a.Size != 0 {
				t.Fatalf("underlying %s seen from node %d: size %d, %v; want 0", upath, n, a.Size, err)
			}
		}
		if a, err := d.Mounts[0].Stat(p, cluster.Ctx(0, 1), "/f"); err != nil || a.Size != 0 {
			t.Fatalf("node 0 stats /f: size %d, %v; want 0", a.Size, err)
		}
	})
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReadAfterRemoteRemoveIsNotExist: node 1 opens /f from its lease,
// node 0 then unlinks it or renames /g over it, and node 1's first read
// fails with ErrNotExist, as it does when the open fetched the mapping
// (the underlying file is gone by then). Nothing is left behind.
func TestReadAfterRemoteRemoveIsNotExist(t *testing.T) {
	for _, c := range []struct {
		name   string
		remove func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx) error
	}{
		{"unlink", func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx) error { return m.Unlink(p, ctx, "/f") }},
		{"rename-over", func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx) error { return m.Rename(p, ctx, "/g", "/f") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb, d, _ := openRig(t)
			var f *vfs.File
			Drained(tb, "open", func(p *sim.Proc) {
				before := sessionCalls(d, 1)
				f = mustOpen(t, p, d.Mounts[1], cluster.Ctx(1, 1), "/f", vfs.OpenRead)
				if got := sessionCalls(d, 1) - before; got != 0 {
					t.Fatalf("open from the lease: %d calls, want 0", got)
				}
			})
			Drained(tb, c.name, func(p *sim.Proc) {
				if err := c.remove(p, d.Mounts[0], cluster.Ctx(0, 1)); err != nil {
					t.Fatal(err)
				}
			})
			Drained(tb, "read", func(p *sim.Proc) {
				if _, err := f.ReadAt(p, 0, 4096); err != vfs.ErrNotExist {
					t.Fatalf("first read after the %s: %v, want %v", c.name, err, vfs.ErrNotExist)
				}
				if err := f.Close(p); err != nil {
					t.Fatal(err)
				}
				if rep := Fsck(p, d.Service, tb.Mounts[0]); !rep.OK() {
					t.Fatal(rep)
				}
			})
			if err := d.Service.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := tb.FS.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
