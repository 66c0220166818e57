package core_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/lock"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/vfs"
)

// These tests pin the lock-ordered cross-shard transaction layer
// (twophase.go, txnlock.go, docs/transactions.md) from both sides:
//
//   - The interleaving replays reproduce, deterministically, the
//     rename-vs-rename and rename-vs-remove races that an unlocked
//     validate→commit protocol loses (the races a concurrency storm
//     once found). Each replay sweeps the start offset of the second
//     mutation across the first one's protocol window; no offset may
//     corrupt the plane invariants, and the final namespace must be one
//     of the two serial outcomes.
//   - The cost baseline runs a single-process workload over every
//     cross-shard path: virtual end time and network message count must
//     match an absolute pin, so uncontended lock acquisition charges
//     nothing.

// raceOffsets is the sweep of start delays for the second mutation of
// each replay: 0 to 3ms in 150µs steps, densely covering the first
// mutation's validate→commit window (a cross-shard rename spends a few
// hundred µs to low ms between its validation reads and its last
// commit, depending on queueing).
func raceOffsets() []time.Duration {
	var out []time.Duration
	for d := time.Duration(0); d <= 3*time.Millisecond; d += 150 * time.Microsecond {
		out = append(out, d)
	}
	return out
}

// TestRenameRenameRaceInterleaving replays two concurrent renames of
// different sources onto the same destination name. Unlocked, both
// could validate the destination as absent and both install it — the
// second install silently overwriting the first, stranding a file with
// nlink=1 and no dentry ("inode N nlink=1, 0 dentries"). Lock-ordered,
// the destination dentry's lock serializes the two renames: the loser
// sees the winner's entry and replaces it properly.
func TestRenameRenameRaceInterleaving(t *testing.T) {
	type outcome struct {
		invErr   error
		zOK      bool // /c/z resolves
		srcsGone bool // /a/x and /b/y both ENOENT
		counters *stats.Counters
	}
	run := func(delta time.Duration) outcome {
		tb, d := core.Rig(t, 31, 2, core.Shards(2), core.NoKernelEntries)
		ctx0, ctx1 := cluster.Ctx(0, 1), cluster.Ctx(1, 1)
		core.Drained(tb, "setup", func(p *sim.Proc) {
			for _, dir := range []string{"/a", "/b", "/c"} {
				if err := d.Mounts[0].Mkdir(p, ctx0, dir, 0777); err != nil {
					t.Fatal(err)
				}
			}
			for _, file := range []string{"/a/x", "/b/y"} {
				f, err := d.Mounts[0].Create(p, ctx0, file, 0644)
				if err != nil {
					t.Fatal(err)
				}
				f.Close(p)
			}
		})
		tb.Env.Spawn("renameA", func(p *sim.Proc) {
			d.Mounts[0].Rename(p, ctx0, "/a/x", "/c/z")
		})
		tb.Env.SpawnAfter("renameB", delta, func(p *sim.Proc) {
			d.Mounts[1].Rename(p, ctx1, "/b/y", "/c/z")
		})
		tb.Run()
		var out outcome
		out.invErr = d.Service.CheckInvariants()
		core.Drained(tb, "verify", func(p *sim.Proc) {
			_, zErr := d.Mounts[0].Stat(p, ctx0, "/c/z")
			_, xErr := d.Mounts[0].Stat(p, ctx0, "/a/x")
			_, yErr := d.Mounts[0].Stat(p, ctx0, "/b/y")
			out.zOK = zErr == nil
			out.srcsGone = xErr == vfs.ErrNotExist && yErr == vfs.ErrNotExist
		})
		out.counters = d.Counters()
		return out
	}

	var conflicts int64
	for _, delta := range raceOffsets() {
		out := run(delta)
		if out.invErr != nil {
			t.Fatalf("offset %v: lock-ordered protocol broke invariants: %v", delta, out.invErr)
		}
		// Either serial order moves both sources and leaves exactly one
		// of the two files at the destination.
		if !out.zOK || !out.srcsGone {
			t.Fatalf("offset %v: final namespace is not a serial outcome: z=%v srcsGone=%v",
				delta, out.zOK, out.srcsGone)
		}
		conflicts += out.counters.Get("mds.lock-conflicts")
		if out.counters.Get("mds.lock-acquires") == 0 {
			t.Fatalf("offset %v: no row locks were taken", delta)
		}
	}
	if conflicts == 0 {
		t.Fatal("no offset made the renames contend a row lock: the replay no longer overlaps them")
	}
}

// TestRenameRemoveRaceInterleaving replays a rename replacing a
// hard-linked destination against a concurrent remove of that same
// destination name. Unlocked, both could observe the old entry and both
// drop one of the target's links — two decrements for one removed
// dentry — leaving the surviving name pointing at a reclaimed inode.
// Lock-ordered, the remove and the rename serialize on the destination
// dentry and the target's inode row, so exactly one link dies and the
// other name keeps a live inode with nlink=1 in either serial order.
func TestRenameRemoveRaceInterleaving(t *testing.T) {
	var conflicts int64
	run := func(delta time.Duration) (nlink int, statErr error, invErr error) {
		tb, d := core.Rig(t, 33, 2, core.Shards(2), core.NoKernelEntries)
		ctx0, ctx1 := cluster.Ctx(0, 1), cluster.Ctx(1, 1)
		core.Drained(tb, "setup", func(p *sim.Proc) {
			for _, dir := range []string{"/a", "/c", "/d"} {
				if err := d.Mounts[0].Mkdir(p, ctx0, dir, 0777); err != nil {
					t.Fatal(err)
				}
			}
			for _, file := range []string{"/a/x", "/c/z"} {
				f, err := d.Mounts[0].Create(p, ctx0, file, 0644)
				if err != nil {
					t.Fatal(err)
				}
				f.Close(p)
			}
			// The replaced target is reachable under a second name, so a
			// double unlink of it strands /d/w on a dead inode.
			if err := d.Mounts[0].Link(p, ctx0, "/c/z", "/d/w"); err != nil {
				t.Fatal(err)
			}
		})
		tb.Env.Spawn("rename", func(p *sim.Proc) {
			d.Mounts[0].Rename(p, ctx0, "/a/x", "/c/z")
		})
		tb.Env.SpawnAfter("remove", delta, func(p *sim.Proc) {
			d.Mounts[1].Unlink(p, ctx1, "/c/z")
		})
		tb.Run()
		invErr = d.Service.CheckInvariants()
		core.Drained(tb, "verify", func(p *sim.Proc) {
			attr, err := d.Mounts[0].Stat(p, ctx0, "/d/w")
			nlink, statErr = attr.Nlink, err
		})
		conflicts += d.Counters().Get("mds.lock-conflicts")
		return nlink, statErr, invErr
	}

	for _, delta := range raceOffsets() {
		nlink, statErr, invErr := run(delta)
		if invErr != nil {
			t.Fatalf("offset %v: lock-ordered protocol broke invariants: %v", delta, invErr)
		}
		if statErr != nil || nlink != 1 {
			t.Fatalf("offset %v: surviving hard link wrong: nlink=%d, %v", delta, nlink, statErr)
		}
	}
	if conflicts == 0 {
		t.Fatal("no offset made the rename and the remove contend a row lock: the replay no longer overlaps them")
	}
}

// TestCreateCreateOverlapInterleaving replays two concurrent creates
// of different names in one shared directory, offset-swept like the
// rename replays above. Both creates coordinate at the parent's shard
// and both footprints meet on the parent directory's inode row, which
// each holds Shared: at no offset may either create park, and where
// their validate→commit spans overlap the two must hold the parent row
// at the same instant. The shard WAL runs synchronously here
// (LogFlushInterval=0), so each create's durable commit lands inside
// its locked span — the validate→commit window is commit-wide, the
// regime where group-commit overlap matters.
func TestCreateCreateOverlapInterleaving(t *testing.T) {
	overlapped := 0
	for _, delta := range raceOffsets() {
		tb, d := core.Rig(t, 37, 2, core.Shards(2), core.NoKernelEntries, func(cfg *params.Config) { cfg.COFS.LogFlushInterval = 0 })
		ctx0 := cluster.Ctx(0, 1)
		var parent vfs.Attr
		core.Drained(tb, "setup", func(p *sim.Proc) {
			if err := d.Mounts[0].Mkdir(p, ctx0, "/shared", 0777); err != nil {
				t.Fatal(err)
			}
			var err error
			if parent, err = d.Mounts[0].Stat(p, ctx0, "/shared"); err != nil {
				t.Fatal(err)
			}
		})
		// Watch every grant of the parent's inode row: a second Shared
		// holder beside the first is the overlap itself.
		rl := d.Service.RowLocks()
		both := false
		rl.OnGrant = func(_ *sim.Proc, key lock.RowKey, mode lock.Mode) {
			if key.Name == "" && key.ID == uint64(parent.Ino) && mode == lock.ModeShared {
				if sh, _ := rl.Holders(key); sh == 2 {
					both = true
				}
			}
		}
		// Node i creates /shared/<name> i·delta after the start.
		for i, name := range []string{"a", "b"} {
			path := "/shared/" + name
			tb.Env.SpawnAfter("create"+name, time.Duration(i)*delta, func(p *sim.Proc) {
				f, err := d.Mounts[i].Create(p, cluster.Ctx(i, 1), path, 0644)
				if err != nil {
					t.Errorf("offset %v: create %s: %v", delta, path, err)
					return
				}
				f.Close(p)
			})
		}
		tb.Run()
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatalf("offset %v: invariants: %v", delta, err)
		}
		core.Drained(tb, "verify", func(p *sim.Proc) {
			for _, path := range []string{"/shared/a", "/shared/b"} {
				if _, err := d.Mounts[0].Stat(p, ctx0, path); err != nil {
					t.Fatalf("offset %v: lost create %s: %v", delta, path, err)
				}
			}
		})
		c := d.Counters()
		if n := c.Get("mds.lock-conflicts"); n != 0 {
			t.Fatalf("offset %v: a create parked %d times: same-directory creates no longer overlap", delta, n)
		}
		if c.Get("mds.lock-shared") == 0 {
			t.Fatalf("offset %v: no shared row locks were taken", delta)
		}
		if both {
			overlapped++
		}
	}
	if overlapped == 0 {
		t.Fatal("at no offset did both creates hold the parent row at once: the replay no longer overlaps them")
	}
}

// TestCreateStormGroupCommitBatching pins the "group commit" in the
// same-directory overlap directly, at the flush level: with the shard's
// WAL in synchronous mode (LogFlushInterval=0, every durable
// transaction forces the journal), four clients creating in one
// directory at small offsets ride shared journal flushes only if their
// validate→commit spans actually overlap. The parent row is held
// Shared, so no create parks and the commits arrive while a flush is in
// flight: the storm costs fewer syncs than it has creates.
func TestCreateStormGroupCommitBatching(t *testing.T) {
	const creates = 4
	tb, d := core.Rig(t, 41, creates, core.Shards(2), core.NoKernelEntries, func(cfg *params.Config) { cfg.COFS.LogFlushInterval = 0 })
	ctx0 := cluster.Ctx(0, 1)
	core.Drained(tb, "setup", func(p *sim.Proc) {
		if err := d.Mounts[0].Mkdir(p, ctx0, "/shared", 0777); err != nil {
			t.Fatal(err)
		}
	})
	var base int64
	for _, s := range d.Service.Shards() {
		base -= s.Disk.Syncs
	}
	for i := 0; i < creates; i++ {
		i := i
		tb.Env.SpawnAfter(fmt.Sprintf("create%d", i), time.Duration(i)*50*time.Microsecond, func(p *sim.Proc) {
			ctx := cluster.Ctx(i, 1)
			f, err := d.Mounts[i].Create(p, ctx, fmt.Sprintf("/shared/f%d", i), 0644)
			if err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
			f.Close(p)
		})
	}
	tb.Run()
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	syncs := base
	for _, s := range d.Service.Shards() {
		syncs += s.Disk.Syncs
	}
	if n := d.Counters().Get("mds.lock-conflicts"); n != 0 {
		t.Fatalf("storm parked %d times on same-directory creates", n)
	}
	if syncs >= creates {
		t.Fatalf("group commit did not batch: %d WAL syncs for %d creates", syncs, creates)
	}
}

// TestTxnLocksUncontendedCostIdentical pins the cost contract of the
// lock layer: with no contention, acquiring and releasing row locks
// charges nothing — a single-process workload over every cross-shard
// mutation path must land on exactly the virtual clock and move exactly
// the number of network messages of an absolute pin: the figures the
// same workload produced with no lock layer at all.
func TestTxnLocksUncontendedCostIdentical(t *testing.T) {
	for _, tc := range []struct {
		shards int
		now    time.Duration
		msgs   int64
	}{
		{2, 1421295190 * time.Nanosecond, 610},
		{4, 1457514147 * time.Nanosecond, 648},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%dshards", tc.shards), func(t *testing.T) {
			tb, d := core.Rig(t, 55, 2, core.Shards(tc.shards), core.NoKernelEntries)
			ctx := cluster.Ctx(0, 1)
			core.Drained(tb, "workload", func(p *sim.Proc) {
				m := d.Mounts[0]
				// Directory creates spread across shards by DirTarget:
				// some land remote (createRemoteDir), some local.
				for i := 0; i < 6; i++ {
					if err := m.MkdirAll(p, ctx, fmt.Sprintf("/t/d%d", i), 0777); err != nil {
						t.Fatal(err)
					}
					f, err := m.Create(p, ctx, fmt.Sprintf("/t/d%d/f", i), 0644)
					if err != nil {
						t.Fatal(err)
					}
					f.Close(p)
				}
				// Cross-directory (and cross-shard) links, renames —
				// plain and replacing — removes and rmdirs.
				if err := m.Link(p, ctx, "/t/d0/f", "/t/d1/g"); err != nil {
					t.Fatal(err)
				}
				if err := m.Rename(p, ctx, "/t/d2/f", "/t/d3/r"); err != nil {
					t.Fatal(err)
				}
				if err := m.Rename(p, ctx, "/t/d4/f", "/t/d3/f"); err != nil {
					t.Fatal(err)
				}
				if err := m.Unlink(p, ctx, "/t/d1/g"); err != nil {
					t.Fatal(err)
				}
				if err := m.Unlink(p, ctx, "/t/d5/f"); err != nil {
					t.Fatal(err)
				}
				if err := m.Rmdir(p, ctx, "/t/d5"); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Readdir(p, ctx, "/t"); err != nil {
					t.Fatal(err)
				}
			})
			c := d.Counters()
			if c.Get("mds.lock-acquires") == 0 {
				t.Fatal("workload took no row locks: it no longer exercises the lock layer")
			}
			if n := c.Get("mds.lock-conflicts"); n != 0 {
				t.Fatalf("single-process workload contended row locks %d times: not an uncontended baseline", n)
			}
			if now, msgs := tb.Env.Now(), tb.Net.Messages; now != tc.now || msgs != tc.msgs {
				t.Fatalf("uncontended locks are not free: (%v, %d msgs), pinned (%v, %d msgs)",
					now, msgs, tc.now, tc.msgs)
			}
		})
	}
}

// TestUnshardedRacesRestOnAtomicTransactions replays, on the one-shard
// plane, the races the lock table closes on a sharded one. That plane
// takes no row locks (lockRows is a no-op): each mutation is a single
// store transaction, and all that isolates two of them is that a
// transaction's closure and write set land at one virtual instant
// (docs/transactions.md). Sixteen mkdirs of one name issued at the same
// instant must yield one directory, fifteen EEXIST and a parent whose
// link count and mtime reflect exactly one of them; an rmdir racing a
// create into the same directory, swept across each other's windows in
// both orders, must end ENOTEMPTY with the file in place or with the
// directory gone and the create's ENOENT — never a file whose parent
// was removed.
func TestUnshardedRacesRestOnAtomicTransactions(t *testing.T) {
	t.Run("SameNameCreates", func(t *testing.T) {
		const procs = 16
		tb, d := core.Rig(t, 43, 4, core.Shards(1), core.NoKernelEntries)
		svc := d.Service
		core.Drained(tb, "setup", func(p *sim.Proc) {
			if err := d.Mounts[0].Mkdir(p, cluster.Ctx(0, 1), "/d", 0777); err != nil {
				t.Fatal(err)
			}
		})
		parent := inoOf(t, tb, d, "/d")
		var won vfs.Attr
		wins, exists := 0, 0
		for i := 0; i < procs; i++ {
			tb.Env.Spawn("mkdir", func(p *sim.Proc) {
				node := i % 4
				attr, err := svc.Create(p, d.FSs[node].Session(), cluster.Ctx(node, 1), parent, "same", vfs.TypeDir, 0777, "", "")
				switch err {
				case nil:
					wins++
					won = attr
				case vfs.ErrExist:
					exists++
				default:
					t.Errorf("mkdir %d: %v", i, err)
				}
			})
		}
		tb.Run()
		if wins != 1 || exists != procs-1 {
			t.Fatalf("%d mkdirs of one name: %d succeeded, %d EEXIST", procs, wins, exists)
		}
		core.Drained(tb, "verify", func(p *sim.Proc) {
			attr, err := d.Mounts[0].Stat(p, cluster.Ctx(0, 1), "/d")
			if err != nil || attr.Nlink != 3 || attr.Mtime != won.Mtime {
				t.Errorf("parent after the race: nlink %d mtime %v (%v), want nlink 3 and the winner's instant %v",
					attr.Nlink, attr.Mtime, err, won.Mtime)
			}
		})
		if err := svc.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("RmdirVsCreate", func(t *testing.T) {
		emptied, kept := 0, 0
		for _, rmdirFirst := range []bool{true, false} {
			for _, delta := range raceOffsets() {
				tb, d := core.Rig(t, 47, 2, core.Shards(1), core.NoKernelEntries)
				ctx0, ctx1 := cluster.Ctx(0, 1), cluster.Ctx(1, 1)
				core.Drained(tb, "setup", func(p *sim.Proc) {
					if err := d.Mounts[0].Mkdir(p, ctx0, "/d", 0777); err != nil {
						t.Fatal(err)
					}
				})
				var rmErr, crErr error
				rmdir := func(p *sim.Proc) { rmErr = d.Mounts[0].Rmdir(p, ctx0, "/d") }
				create := func(p *sim.Proc) {
					f, err := d.Mounts[1].Create(p, ctx1, "/d/f", 0644)
					if crErr = err; err == nil {
						f.Close(p)
					}
				}
				first, second := rmdir, create
				if !rmdirFirst {
					first, second = create, rmdir
				}
				tb.Env.Spawn("first", first)
				tb.Env.SpawnAfter("second", delta, second)
				tb.Run()
				switch {
				case rmErr == nil && crErr == vfs.ErrNotExist:
					emptied++
				case rmErr == vfs.ErrNotEmpty && crErr == nil:
					kept++
				default:
					t.Fatalf("rmdirFirst=%v offset %v: rmdir %v, create %v: not a serial outcome", rmdirFirst, delta, rmErr, crErr)
				}
				if err := d.Service.CheckInvariants(); err != nil {
					t.Fatalf("rmdirFirst=%v offset %v: %v", rmdirFirst, delta, err)
				}
				if rep := runFsck(tb, d); !rep.OK() {
					t.Fatalf("rmdirFirst=%v offset %v: fsck not clean:\n%s", rmdirFirst, delta, rep)
				}
			}
		}
		if emptied == 0 || kept == 0 {
			t.Fatalf("%d races removed the directory and %d kept it: the sweep no longer covers both orders", emptied, kept)
		}
	})
}
