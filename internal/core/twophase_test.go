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
	"cofs/internal/trace"
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

// Each replay sweeps the second mutation's start offset (core.Sweep)
// from 0 to 3 ms in 150µs steps, densely covering the first mutation's
// validate→commit window (a cross-shard rename spends a few hundred µs
// to low ms between its validation reads and its last commit, depending
// on queueing).

// TestRenameRenameRaceInterleaving replays two concurrent renames of
// different sources onto the same destination name. Lock-ordered, the
// destination dentry's lock serializes them: at every offset the plane
// keeps its invariants and ends in one of the two serial outcomes, row
// locks are taken, and at some offset the renames contend one, so the
// replay does overlap them. It does not reproduce the unlocked
// protocol's lost update (both validate the destination as absent, the
// second install overwrites the first: "inode N nlink=1, 0 dentries"):
// with row locks made no-ops every offset still ends in a serial
// outcome, and only the two lock checks fail.
func TestRenameRenameRaceInterleaving(t *testing.T) {
	var conflicts int64
	core.Sweep(t, 150*time.Microsecond, func(delta time.Duration) {
		tb, d := core.Rig(t, 31, 2, core.Shards(2), core.NoKernelEntries)
		core.Play(t, tb, d, core.Mkdir(0, "/a", 0777), core.Mkdir(0, "/b", 0777), core.Mkdir(0, "/c", 0777),
			core.Create(0, "/a/x", 0644), core.Create(0, "/b/y", 0644))
		core.Race(tb, d, core.Op(0, trace.Rename, "/a/x", "/c/z"), core.At(delta, core.Op(1, trace.Rename, "/b/y", "/c/z")))
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatalf("lock-ordered protocol broke invariants: %v", err)
		}
		// Either serial order moves both sources and leaves exactly one
		// of the two files at the destination.
		core.Play(t, tb, d, core.Stat(0, "/c/z"))
		core.Expect(t, tb, d, vfs.ErrNotExist, core.Stat(0, "/a/x"), core.Stat(0, "/b/y"))
		c := d.Counters()
		conflicts += c.Get("mds.lock-conflicts")
		if c.Get("mds.lock-acquires") == 0 {
			t.Fatal("no row locks were taken")
		}
	})
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
	core.Sweep(t, 150*time.Microsecond, func(delta time.Duration) {
		tb, d := core.Rig(t, 33, 2, core.Shards(2), core.NoKernelEntries)
		// The replaced target is reachable under a second name, so a
		// double unlink of it strands /d/w on a dead inode.
		core.Play(t, tb, d, core.Mkdir(0, "/a", 0777), core.Mkdir(0, "/c", 0777), core.Mkdir(0, "/d", 0777),
			core.Create(0, "/a/x", 0644), core.Create(0, "/c/z", 0644), core.Op(0, trace.Link, "/c/z", "/d/w"))
		core.Race(tb, d, core.Op(0, trace.Rename, "/a/x", "/c/z"), core.At(delta, core.Op(1, trace.Unlink, "/c/z", "")))
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatalf("lock-ordered protocol broke invariants: %v", err)
		}
		if w := core.Attrs(t, tb, d, 0, "/d/w")[0]; w.Nlink != 1 {
			t.Fatalf("surviving hard link wrong: nlink=%d", w.Nlink)
		}
		conflicts += d.Counters().Get("mds.lock-conflicts")
	})
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
	core.Sweep(t, 150*time.Microsecond, func(delta time.Duration) {
		tb, d := core.Rig(t, 37, 2, core.Shards(2), core.NoKernelEntries, func(cfg *params.Config) { cfg.COFS.LogFlushInterval = 0 })
		core.Play(t, tb, d, core.Mkdir(0, "/shared", 0777))
		parent := core.Ino(t, tb, d, "/shared")
		// Watch every grant of the parent's inode row: a second Shared
		// holder beside the first is the overlap itself.
		rl := d.Service.RowLocks()
		both := false
		rl.OnGrant = func(_ *sim.Proc, key lock.RowKey, mode lock.Mode) {
			if key.Name == "" && key.ID == uint64(parent) && mode == lock.ModeShared {
				if sh, _ := rl.Holders(key); sh == 2 {
					both = true
				}
			}
		}
		// Node i creates /shared/<name> i·delta after the start.
		core.Play(t, tb, d, core.Create(0, "/shared/a", 0644), core.At(delta, core.Create(1, "/shared/b", 0644)))
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		core.Play(t, tb, d, core.Stat(0, "/shared/a"), core.Stat(0, "/shared/b"))
		c := d.Counters()
		if n := c.Get("mds.lock-conflicts"); n != 0 {
			t.Fatalf("a create parked %d times: same-directory creates no longer overlap", n)
		}
		if c.Get("mds.lock-shared") == 0 {
			t.Fatal("no shared row locks were taken")
		}
		if both {
			overlapped++
		}
	})
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
	core.Play(t, tb, d, core.Mkdir(0, "/shared", 0777))
	var base int64
	for _, s := range d.Service.Shards() {
		base -= s.Disk.Syncs
	}
	storm := make([]trace.Op, creates)
	for i := range storm {
		storm[i] = core.At(time.Duration(i)*50*time.Microsecond, core.Create(i, fmt.Sprintf("/shared/f%d", i), 0644))
	}
	core.Play(t, tb, d, storm...)
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
		{2, 211254593 * time.Nanosecond, 274},
		{4, 236482764 * time.Nanosecond, 330},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%dshards", tc.shards), func(t *testing.T) {
			tb, d := core.Rig(t, 55, 2, core.Shards(tc.shards), core.NoKernelEntries)
			// Directory creates spread across shards by DirTarget: some
			// land remote (createRemoteDir), some local. Then
			// cross-directory (and cross-shard) links, renames — plain
			// and replacing — removes and rmdirs.
			var ops []trace.Op
			for i := 0; i < 6; i++ {
				ops = append(ops, core.Mkdir(0, fmt.Sprintf("/t/d%d", i), 0777), core.Create(0, fmt.Sprintf("/t/d%d/f", i), 0644))
			}
			core.Play(t, tb, d, append(ops, core.Op(0, trace.Link, "/t/d0/f", "/t/d1/g"),
				core.Op(0, trace.Rename, "/t/d2/f", "/t/d3/r"), core.Op(0, trace.Rename, "/t/d4/f", "/t/d3/f"),
				core.Op(0, trace.Unlink, "/t/d1/g", ""), core.Op(0, trace.Unlink, "/t/d5/f", ""),
				core.Op(0, trace.Rmdir, "/t/d5", ""), core.Op(0, trace.Readdir, "/t", ""))...)
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
		core.Play(t, tb, d, core.Mkdir(0, "/d", 0777))
		parent := core.Ino(t, tb, d, "/d")
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
		if attr := core.Attrs(t, tb, d, 0, "/d")[0]; attr.Nlink != 3 || attr.Mtime != won.Mtime {
			t.Errorf("parent after the race: nlink %d mtime %v, want nlink 3 and the winner's instant %v",
				attr.Nlink, attr.Mtime, won.Mtime)
		}
		core.CheckPlane(t, tb, d, core.PlaneTables)
	})

	t.Run("RmdirVsCreate", func(t *testing.T) {
		emptied, kept := 0, 0
		for _, rmdirFirst := range []bool{true, false} {
			core.Sweep(t, 150*time.Microsecond, func(delta time.Duration) {
				tb, d := core.Rig(t, 47, 2, core.Shards(1), core.NoKernelEntries)
				core.Play(t, tb, d, core.Mkdir(0, "/d", 0777))
				rmdir, create := core.Op(0, trace.Rmdir, "/d", ""), core.Create(1, "/d/f", 0644)
				var rmErr, crErr error
				if rmdirFirst {
					errs := core.Race(tb, d, rmdir, core.At(delta, create))
					rmErr, crErr = errs[0], errs[1]
				} else {
					errs := core.Race(tb, d, create, core.At(delta, rmdir))
					crErr, rmErr = errs[0], errs[1]
				}
				switch {
				case rmErr == nil && crErr == vfs.ErrNotExist:
					emptied++
				case rmErr == vfs.ErrNotEmpty && crErr == nil:
					kept++
				default:
					t.Fatalf("rmdirFirst=%v: rmdir %v, create %v: not a serial outcome", rmdirFirst, rmErr, crErr)
				}
				core.CheckPlane(t, tb, d, core.PlaneTables|core.PlaneFsck)
			})
		}
		if emptied == 0 || kept == 0 {
			t.Fatalf("%d races removed the directory and %d kept it: the sweep no longer covers both orders", emptied, kept)
		}
	})
}
