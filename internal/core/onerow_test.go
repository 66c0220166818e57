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

// These tests pin the trimmed metadata paths: each request reads a row
// once (a regular file's underlying path rides in its inode row), a
// sharded unlink validates by its dentry alone, and a cross-shard
// rename onto an absent name installs the destination in its one
// validation message. The cost pin says what a request holds its shard
// for; the others that the trimmed paths still answer like the
// single-shard ones.

// TestRequestShardCost pins how long one request holds the worker of
// the shard that serves it, on one shard and on four: the dispatch CPU
// plus DBOpTime for each table operation. A create is five operations
// (the parent's row, the name, the new row, the entry, the parent's
// stamp), an open one dirty read of the row, underlying path included,
// and a last-link unlink of a co-located file six (the entry, the
// parent's row, the file's row, the entry's and the row's removal, the
// parent's stamp). On four shards a rename between directories on two
// shards sends one peer message when the destination name is absent —
// the destination validates and installs in it, holding its shard for
// the full dispatch CPU and four table operations — and two when it
// replaces a file whose row lives on the coordinator.
func TestRequestShardCost(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			cfg := params.Default()
			cfg.COFS.MetadataShards = shards
			tb := cluster.New(3, 1, cfg)
			d := Deploy(tb, nil)
			svc, sess, ctx := d.Service, d.FSs[0].Session(), cluster.Ctx(0, 1)
			cpu, dbop := cfg.COFS.ServiceCPUPerOp, cfg.COFS.DBOpTime
			// held runs fn as one phase and returns how long it kept the
			// worker of shard sh busy.
			held := func(name string, sh int, fn func(p *sim.Proc)) time.Duration {
				c := svc.Shards()[sh].host.CPU
				busy0 := c.BusyTotal
				Drained(tb, name, fn)
				return c.BusyTotal - busy0
			}
			check := func(what string, got, want time.Duration, ops int) {
				t.Helper()
				if got != want {
					t.Errorf("%s held its shard %v, want %v (%d table operations)", what, got, want, ops)
				}
			}
			root := svc.Of(RootID)
			var id vfs.Ino
			var upath string
			got := held("create", root, func(p *sim.Proc) {
				attr, err := svc.Create(p, sess, ctx, RootID, "f", vfs.TypeRegular, 0644, "b0/f", "")
				if err != nil {
					t.Fatal(err)
				}
				id, upath = attr.Ino, "b0/f"
			})
			check("a create", got, cpu+5*dbop, 5)
			if svc.Of(id) != root {
				t.Fatalf("file %d lives on shard %d, not on its directory's shard %d", id, svc.Of(id), root)
			}
			got = held("open", root, func(p *sim.Proc) {
				if _, up, err := svc.OpenInfo(p, sess, id); err != nil || up != upath {
					t.Fatalf("open: %q, %v; want %q", up, err, upath)
				}
			})
			check("an open", got, cpu*3/4+dbop, 1)
			got = held("unlink", root, func(p *sim.Proc) {
				if up, gone, err := svc.Remove(p, sess, ctx, RootID, "f", false, 0); err != nil || up != upath || gone != id {
					t.Fatalf("unlink: %q, %d, %v; want %q, %d", up, gone, err, upath, id)
				}
			})
			check("a last-link unlink", got, cpu+6*dbop, 6)
			if _, ok := svc.Mapping(id); ok {
				t.Fatal("the unlinked file still has an underlying path")
			}
			if shards == 1 {
				return
			}

			// Two directories on different shards, and a file in the first.
			var src, dst vfs.Ino
			var f vfs.Ino
			Drained(tb, "dirs", func(p *sim.Proc) {
				attr, err := svc.Create(p, sess, ctx, RootID, "s", vfs.TypeDir, 0755, "", "")
				if err != nil {
					t.Fatal(err)
				}
				src = attr.Ino
				for i := 0; dst == 0; i++ {
					attr, err := svc.Create(p, sess, ctx, RootID, fmt.Sprintf("t%d", i), vfs.TypeDir, 0755, "", "")
					if err != nil {
						t.Fatal(err)
					}
					if svc.Of(attr.Ino) != svc.Of(src) {
						dst = attr.Ino
					}
				}
				for _, name := range []string{"f", "h"} {
					attr, err := svc.Create(p, sess, ctx, src, name, vfs.TypeRegular, 0644, "b0/"+name, "")
					if err != nil {
						t.Fatal(err)
					}
					if name == "f" {
						f = attr.Ino
					}
				}
			})
			peers := func() int64 { return svc.Stats().PeerCalls }
			before := peers()
			got = held("rename", svc.Of(dst), func(p *sim.Proc) {
				if up, gone, err := svc.Rename(p, sess, ctx, src, "f", dst, "g"); err != nil || up != "" || gone != 0 {
					t.Fatalf("rename onto an absent name: %q, %d, %v", up, gone, err)
				}
			})
			if n := peers() - before; n != 1 {
				t.Errorf("a cross-shard rename onto an absent name sent %d peer messages, want 1", n)
			}
			check("the destination of a rename onto an absent name", got, cpu+4*dbop, 4)
			fpath, _ := svc.Mapping(f)
			before = peers()
			Drained(tb, "replace", func(p *sim.Proc) {
				if up, gone, err := svc.Rename(p, sess, ctx, src, "h", dst, "g"); err != nil || up != fpath || gone != f {
					t.Fatalf("replacing rename: %q, %d, %v; want %q, %d", up, gone, err, fpath, f)
				}
			})
			if n := peers() - before; n != 2 {
				t.Errorf("a cross-shard rename replacing a file sent %d peer messages, want 2", n)
			}
			if err := svc.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUnlinkErrorPrecedence: a sharded unlink reads only the dentry on
// its way to success and leaves the parent's permission check to its
// commit, yet answers every case as the single-shard path does. Without
// write permission on the directory an unlink is EACCES whatever the
// name holds — a co-located file, a file whose row lives on another
// shard, nothing, a subdirectory — and changes nothing; with it, a
// missing name is ENOENT and a subdirectory EISDIR. An rmdir of a
// non-empty directory without permission is EACCES too, not ENOTEMPTY.
func TestUnlinkErrorPrecedence(t *testing.T) {
	tb, d := Rig(t, 5, 2, Shards(4), Leases)
	m, owner := d.Mounts[0], cluster.Ctx(0, 1)
	other := vfs.Ctx{Node: 1, PID: 1, UID: 2000, GID: 200}
	// A file whose row lives on another shard than /d's: created in a
	// directory placed elsewhere, then renamed in.
	e := AwayFrom(4, "d", "e")
	Play(t, tb, d, Mkdir(0, "/d", 0755), Create(0, "/d/f", 0644), Mkdir(0, "/d/sub", 0755), Create(0, "/d/sub/x", 0644),
		Mkdir(0, e, 0755), Create(0, e+"/r", 0644), Op(0, trace.Rename, e+"/r", "/d/r"))
	Drained(tb, "errors", func(p *sim.Proc) {
		m1 := d.Mounts[1]
		for _, c := range []struct {
			ctx  vfs.Ctx
			path string
			want error
		}{
			{other, "/d/f", vfs.ErrPerm},
			{other, "/d/r", vfs.ErrPerm},
			{other, "/d/missing", vfs.ErrPerm},
			{other, "/d/sub", vfs.ErrPerm},
			{owner, "/d/missing", vfs.ErrNotExist},
			{owner, "/d/sub", vfs.ErrIsDir},
		} {
			if err := m1.Unlink(p, c.ctx, c.path); err != c.want {
				t.Errorf("unlink %s as uid %d: %v, want %v", c.path, c.ctx.UID, err, c.want)
			}
		}
		if err := m1.Rmdir(p, other, "/d/sub"); err != vfs.ErrPerm {
			t.Errorf("rmdir of a non-empty directory without permission: %v, want %v", err, vfs.ErrPerm)
		}
		if err := m1.Rmdir(p, owner, "/d/sub"); err != vfs.ErrNotEmpty {
			t.Errorf("rmdir of a non-empty directory: %v, want %v", err, vfs.ErrNotEmpty)
		}
		for _, path := range []string{"/d/f", "/d/r", "/d/sub"} {
			if _, err := m1.Stat(p, owner, path); err != nil {
				t.Errorf("%s after the refused unlinks: %v", path, err)
			}
		}
	})
	CheckPlane(t, tb, d, PlaneAll)
	Drained(tb, "unlink", func(p *sim.Proc) {
		for _, path := range []string{"/d/f", "/d/r"} {
			if err := m.Unlink(p, owner, path); err != nil {
				t.Fatalf("unlink %s: %v", path, err)
			}
		}
	})
	CheckPlane(t, tb, d, PlaneAll)
}

// TestCrossShardRenameCases runs renames between two directories on
// different shards — a file onto an absent name (installed in the
// validation message), a directory onto an absent name, a file onto an
// existing file (validated, then installed) and a directory onto a
// non-empty directory (refused) — and holds the tables, the caches of
// both nodes and the underlying file system to each other after each.
// The other node looks once its kernel's entry cache has expired, so
// what it sees comes from its leases or the service.
func TestCrossShardRenameCases(t *testing.T) {
	tb, d := Rig(t, 5, 2, Shards(4), Leases)
	m, ctx := d.Mounts[0], cluster.Ctx(0, 1)
	dst := AwayFrom(4, "s", "t")
	Play(t, tb, d, Mkdir(0, "/s", 0755), Mkdir(0, dst, 0755), Create(0, "/s/a", 0644), Create(0, "/s/b", 0644),
		Create(0, dst+"/x", 0644), Mkdir(0, "/s/dir", 0755), Mkdir(0, "/s/dir2", 0755), Mkdir(0, dst+"/full", 0755),
		Create(0, dst+"/full/y", 0644))
	// Node 1 caches what the renames below change.
	Play(t, tb, d, Stat(1, "/s/a"), Stat(1, "/s/b"), Stat(1, dst+"/x"), Stat(1, dst+"/full"))
	Drained(tb, "miss", func(p *sim.Proc) {
		if _, err := d.Mounts[1].Stat(p, cluster.Ctx(1, 1), dst+"/a"); err != vfs.ErrNotExist {
			t.Fatalf("stat %s/a before the rename: %v", dst, err)
		}
	})
	CheckPlane(t, tb, d, PlaneAll)
	for _, c := range []struct {
		name, from, to string
		want           error
	}{
		{"file onto an absent name", "/s/a", dst + "/a", nil},
		{"directory onto an absent name", "/s/dir", dst + "/dir", nil},
		{"file onto an existing file", "/s/b", dst + "/x", nil},
		{"directory onto a non-empty directory", "/s/dir2", dst + "/full", vfs.ErrNotEmpty},
	} {
		var ino vfs.Ino
		Drained(tb, c.name, func(p *sim.Proc) {
			attr, err := m.Stat(p, ctx, c.from)
			if err != nil {
				t.Fatal(err)
			}
			ino = attr.Ino
			if err := m.Rename(p, ctx, c.from, c.to); err != c.want {
				t.Fatalf("%s: rename %s -> %s: %v, want %v", c.name, c.from, c.to, err, c.want)
			}
		})
		Drained(tb, c.name+": check", func(p *sim.Proc) {
			AwaitKernelEntries(p, tb)
			for node, mnt := range d.Mounts {
				at, missing := c.to, c.from
				if c.want != nil {
					at, missing = c.from, ""
				}
				attr, err := mnt.Stat(p, cluster.Ctx(node, 1), at)
				if err != nil || attr.Ino != ino {
					t.Errorf("%s: node %d stat %s: ino %d, %v; want ino %d", c.name, node, at, attr.Ino, err, ino)
				}
				if missing == "" {
					continue
				}
				if _, err := mnt.Stat(p, cluster.Ctx(node, 1), missing); err != vfs.ErrNotExist {
					t.Errorf("%s: node %d stat %s: %v, want %v", c.name, node, missing, err, vfs.ErrNotExist)
				}
			}
		})
		CheckPlane(t, tb, d, PlaneAll)
	}
}
