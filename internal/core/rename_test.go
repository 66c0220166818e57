package core

import (
	"fmt"
	"testing"

	"cofs/internal/cluster"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// TestRenameGrantsDestination: a rename's reply leases the destination
// name to the renamer, as a create's leases the new name to its creator,
// so the renamer's stat of the new path costs no service call. It holds
// on one shard and on both sharded branches: the two directories on one
// shard, and on two. Another node's negative entry for the destination is
// recalled at the rename, and every cached entry stays coherent.
func TestRenameGrantsDestination(t *testing.T) {
	for _, c := range []struct {
		name      string
		shards    int
		sameShard bool
	}{
		{"1shard", 1, true},
		{"2shards-one-shard", 2, true},
		{"2shards-cross-shard", 2, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb, d := Rig(t, 1, 2, Shards(c.shards), Leases)
			m0, ctx0 := d.Mounts[0], cluster.Ctx(0, 1)
			m1, ctx1 := d.Mounts[1], cluster.Ctx(1, 1)
			var dst string
			var ino vfs.Ino
			Drained(tb, "setup", func(p *sim.Proc) {
				src := mustMkdir(t, p, m0, ctx0, "/s")
				for i := 0; dst == ""; i++ {
					name := fmt.Sprintf("/t%d", i)
					ti := mustMkdir(t, p, m0, ctx0, name)
					if (d.Service.Of(ti) == d.Service.Of(src)) == c.sameShard {
						dst = name + "/f"
					}
				}
				f, err := m0.Create(p, ctx0, "/s/f", 0644)
				if err != nil {
					t.Fatal(err)
				}
				ino = f.Ino()
				if err := f.Close(p); err != nil {
					t.Fatal(err)
				}
				// Node 1 learns that the destination does not exist yet;
				// the second time, from its cache.
				for i := 0; i < 2; i++ {
					neg := d.FSs[1].CacheStats().NegativeHits
					if _, err := m1.Stat(p, ctx1, dst); err != vfs.ErrNotExist {
						t.Fatalf("node 1 stat %s before the rename: %v", dst, err)
					}
					if i == 1 && d.FSs[1].CacheStats().NegativeHits == neg {
						t.Fatalf("node 1's second stat of %s missed its cache", dst)
					}
				}
			})
			Drained(tb, "rename", func(p *sim.Proc) {
				if err := m0.Rename(p, ctx0, "/s/f", dst); err != nil {
					t.Fatal(err)
				}
			})
			Drained(tb, "stat", func(p *sim.Proc) {
				before := sessionCalls(d, 0)
				attr, err := m0.Stat(p, ctx0, dst)
				if err != nil || attr.Ino != ino {
					t.Fatalf("renamer's stat of %s: ino %d, %v; want ino %d", dst, attr.Ino, err, ino)
				}
				if got := sessionCalls(d, 0) - before; got != 0 {
					t.Fatalf("renamer's stat of the new path: %d service calls, want 0", got)
				}
				neg := d.FSs[1].CacheStats().NegativeHits
				attr, err = m1.Stat(p, ctx1, dst)
				if err != nil || attr.Ino != ino {
					t.Fatalf("node 1 stat of %s after the rename: ino %d, %v; want ino %d", dst, attr.Ino, err, ino)
				}
				if d.FSs[1].CacheStats().NegativeHits != neg {
					t.Fatal("node 1 was served its negative entry for the destination: the rename did not recall it")
				}
			})
			if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
				t.Fatal(err)
			}
			if err := d.Service.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func mustMkdir(t *testing.T, p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, path string) vfs.Ino {
	t.Helper()
	if err := m.Mkdir(p, ctx, path, 0755); err != nil {
		t.Fatal(err)
	}
	attr, err := m.Stat(p, ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	return attr.Ino
}
