package conformance

import (
	"fmt"
	"time"

	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file holds the capability batteries beyond plain POSIX: the
// coherence, crash/recover, crash/promote and live-reshard scenarios a
// production metadata plane must survive. They drive the optional
// System hooks and skip (reported) when a provider does not declare
// the capability or a system does not wire the hook.

func init() { cases = append(cases, batteryCases...) }

// settle is how long a case sleeps to let background durability catch
// up before pulling the plug: comfortably past any store's flush
// interval and any standby's shipping delay.
const settle = 2 * time.Second

var batteryCases = []testCase{
	{name: "NegativeDentryRecalledByRemoteCreate", needs: CapNegativeDentryLeases, wants: wantsSecondMount, fn: func(c *C) {
		// A missing-name lookup installs a negative dentry under lease;
		// a create of that name from another node must recall it before
		// committing, so the first client can never miss the new file.
		_, err := c.M.Stat(c.P, c.S.User, "/nd")
		c.wantErr(err, vfs.ErrNotExist, "stat missing name (installs negative dentry)")
		f, err := c.S.Mount2.Create(c.P, c.S.User2, "/nd", 0644)
		if c.must(err, "create from second node") {
			c.must(f.Close(c.P), "close")
		}
		attr, err := c.M.Stat(c.P, c.S.User, "/nd")
		if c.must(err, "stat after remote create (negative dentry must be recalled)") &&
			attr.Type != vfs.TypeRegular {
			c.Errorf("type = %v, want regular", attr.Type)
		}
		c.must(c.S.Mount2.Unlink(c.P, c.S.User2, "/nd"), "unlink from second node")
		_, err = c.M.Stat(c.P, c.S.User, "/nd")
		c.wantErr(err, vfs.ErrNotExist, "stat after remote unlink (positive dentry must be recalled)")
	}},

	{name: "CrashRecoverDurableNamespace", needs: CapCrashRecover, wants: wantsCrashRecover, fn: func(c *C) {
		// Everything committed and flushed before a crash must come back
		// from the durable log: names, sizes, directory contents — and
		// the recovered system must accept new work without id reuse.
		c.must(c.M.Mkdir(c.P, c.S.User, "/cr", 0755), "mkdir")
		for i := 0; i < 4; i++ {
			c.write(c.S.User, fmt.Sprintf("/cr/f%d", i), 256)
		}
		c.P.Sleep(settle)
		c.S.Crash()
		c.S.Recover(c.P)
		for i := 0; i < 4; i++ {
			if got := c.size(c.S.User, fmt.Sprintf("/cr/f%d", i)); got != 256 {
				c.Errorf("recovered /cr/f%d size = %d, want 256", i, got)
			}
		}
		ents, err := c.M.Readdir(c.P, c.S.User, "/cr")
		if c.must(err, "readdir after recovery") && len(ents) != 4 {
			c.Errorf("recovered dir has %d entries, want 4", len(ents))
		}
		after := c.create(c.S.User, "/cr/after", 0644)
		for i := 0; i < 4; i++ {
			attr, err := c.M.Stat(c.P, c.S.User, fmt.Sprintf("/cr/f%d", i))
			if c.must(err, "stat survivor") && attr.Ino == after.Ino {
				c.Errorf("recovered plane reused live id %d for a new file", after.Ino)
			}
		}
	}},

	{name: "CrashRecoverLosesNothingSettled", needs: CapCrashRecover, wants: wantsCrashRecover, fn: func(c *C) {
		// Crash/recover twice in a row with mutations between: rename
		// and unlink history must recover, not just creates.
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.write(c.S.User, "/d/a", 64)
		c.write(c.S.User, "/d/b", 64)
		c.P.Sleep(settle)
		c.S.Crash()
		c.S.Recover(c.P)
		c.must(c.M.Rename(c.P, c.S.User, "/d/a", "/d/a2"), "rename after first recovery")
		c.must(c.M.Unlink(c.P, c.S.User, "/d/b"), "unlink after first recovery")
		c.P.Sleep(settle)
		c.S.Crash()
		c.S.Recover(c.P)
		if got := c.size(c.S.User, "/d/a2"); got != 64 {
			c.Errorf("renamed file after second recovery: size %d, want 64", got)
		}
		_, err := c.M.Stat(c.P, c.S.User, "/d/a")
		c.wantErr(err, vfs.ErrNotExist, "old name after recovered rename")
		_, err = c.M.Stat(c.P, c.S.User, "/d/b")
		c.wantErr(err, vfs.ErrNotExist, "unlinked file after recovery")
	}},

	{name: "CrashPromoteStandby", needs: CapCrashRecover, wants: wantsCrashPromote, fn: func(c *C) {
		// Kill the primaries and promote the hot standby: the namespace
		// must survive through the replica feed and the promoted plane
		// must serve mutations.
		c.must(c.M.Mkdir(c.P, c.S.User, "/pr", 0755), "mkdir")
		for i := 0; i < 4; i++ {
			c.write(c.S.User, fmt.Sprintf("/pr/f%d", i), 128)
		}
		c.P.Sleep(settle) // let the standby's replicas drain their lag
		c.S.Crash()
		c.S.Promote(c.P)
		for i := 0; i < 4; i++ {
			if got := c.size(c.S.User, fmt.Sprintf("/pr/f%d", i)); got != 128 {
				c.Errorf("promoted /pr/f%d size = %d, want 128", i, got)
			}
		}
		c.create(c.S.User, "/pr/after", 0644)
		c.must(c.M.Rename(c.P, c.S.User, "/pr/f0", "/pr/g0"), "rename on promoted plane")
		ents, err := c.M.Readdir(c.P, c.S.User, "/pr")
		if c.must(err, "readdir on promoted plane") && len(ents) != 5 {
			c.Errorf("promoted dir has %d entries, want 5", len(ents))
		}
	}},

	{name: "StandbyReadsNeverStale", needs: CapCrashRecover, wants: wantsStandbyAndSecondMount, fn: func(c *C) {
		// The stale-free contract with a hot standby trailing the
		// primary: a mutation committed from one node must be visible
		// to a read from another node immediately — not one shipping
		// window later. Every assertion here lands inside the
		// replication window the mutation has not yet shipped through;
		// a read answered from the standby's (older) copy would return
		// the pre-mutation value.
		c.must(c.M.Mkdir(c.P, c.S.User, "/sb", 0755), "mkdir")
		c.write(c.S.User, "/sb/f", 64)
		c.P.Sleep(settle) // let the standby catch up
		_, err := c.S.Mount2.Chmod(c.P, c.S.User2, "/sb/f", 0600)
		c.must(err, "chmod from second node")
		attr, err := c.M.Stat(c.P, c.S.User, "/sb/f")
		if c.must(err, "stat inside the shipping window") && attr.Mode != 0600 {
			c.Errorf("mode = %o after remote chmod, want 600 (stale read)", attr.Mode)
		}
		c.must(c.S.Mount2.Unlink(c.P, c.S.User2, "/sb/f"), "unlink from second node")
		_, err = c.M.Stat(c.P, c.S.User, "/sb/f")
		c.wantErr(err, vfs.ErrNotExist, "stat after remote unlink (a lagging replica must not resurrect)")
		f, err := c.S.Mount2.Create(c.P, c.S.User2, "/sb/g", 0644)
		if c.must(err, "create from second node") {
			c.must(f.Close(c.P), "close")
		}
		ents, err := c.M.Readdir(c.P, c.S.User, "/sb")
		if c.must(err, "readdir inside the shipping window") && len(ents) != 1 {
			c.Errorf("readdir sees %d entries after remote unlink+create, want 1", len(ents))
		}
	}},

	{name: "StandbyPromoteWhileServingReads", needs: CapCrashRecover, wants: wantsCrashPromote, fn: func(c *C) {
		// Promotion under a reading client: reads served right up to
		// the crash, then the standby becomes primary. The promoted
		// namespace must match what those reads observed, and it must
		// serve mutations and fresh reads afterwards.
		c.must(c.M.Mkdir(c.P, c.S.User, "/sp", 0755), "mkdir")
		for i := 0; i < 4; i++ {
			c.write(c.S.User, fmt.Sprintf("/sp/f%d", i), int64(64+i))
		}
		c.P.Sleep(settle) // replicas drained
		for i := 0; i < 4; i++ {
			if got := c.size(c.S.User, fmt.Sprintf("/sp/f%d", i)); got != int64(64+i) {
				c.Errorf("/sp/f%d before promote: size %d, want %d", i, got, 64+i)
			}
		}
		c.S.Crash()
		c.S.Promote(c.P)
		for i := 0; i < 4; i++ {
			if got := c.size(c.S.User, fmt.Sprintf("/sp/f%d", i)); got != int64(64+i) {
				c.Errorf("/sp/f%d after promote: size %d, want %d", i, got, 64+i)
			}
		}
		c.create(c.S.User, "/sp/after", 0644)
		_, err := c.M.Chmod(c.P, c.S.User, "/sp/f0", 0640)
		c.must(err, "chmod on promoted plane")
		attr, err := c.M.Stat(c.P, c.S.User, "/sp/f0")
		if c.must(err, "stat on promoted plane") && attr.Mode != 0640 {
			c.Errorf("mode = %o after post-promote chmod, want 640", attr.Mode)
		}
		ents, err := c.M.Readdir(c.P, c.S.User, "/sp")
		if c.must(err, "readdir on promoted plane") && len(ents) != 5 {
			c.Errorf("promoted dir has %d entries, want 5", len(ents))
		}
	}},

	{name: "ReaddirIsOneSnapshot", needs: CapSnapshotReads, fn: func(c *C) {
		// One file flips between the first and the last name of a
		// directory while another process lists it: every listing must
		// hold the file under exactly one of its names, next to every
		// bystander. The flipper works through the second mount when the
		// system has one, so the renames come from another node.
		const bystanders, flips = 24, 24
		c.must(c.M.Mkdir(c.P, c.S.User, "/snap", 0777), "mkdir")
		c.create(c.S.User, "/snap/a", 0666)
		for i := 0; i < bystanders; i++ {
			c.create(c.S.User, fmt.Sprintf("/snap/m%02d", i), 0644)
		}
		fm, fctx := c.M, c.S.User
		if c.S.Mount2 != nil {
			fm, fctx = c.S.Mount2, c.S.User2
		}
		flipped := false
		c.S.Env.Spawn("conformance.flipper", func(p *sim.Proc) {
			from, to := "/snap/a", "/snap/z"
			for i := 0; i < flips; i++ {
				if err := fm.Rename(p, fctx, from, to); err != nil {
					c.Errorf("flip %d (%s -> %s): %v", i, from, to, err)
				}
				from, to = to, from
				p.Sleep(50 * time.Microsecond)
			}
			flipped = true
		})
		listings := 0
		for !flipped {
			ents, err := c.M.Readdir(c.P, c.S.User, "/snap")
			if !c.must(err, "readdir during the rename storm") {
				return
			}
			listings++
			names := 0
			for _, e := range ents {
				if e.Name == "a" || e.Name == "z" {
					names++
				}
			}
			if names != 1 || len(ents) != bystanders+1 {
				c.Errorf("listing %d holds the flipping file under %d names among %d entries, want 1 among %d",
					listings, names, len(ents), bystanders+1)
			}
			// A provider may list differently for a process that stats what
			// it lists (COFS fetches attributes along with the names once a
			// listing's first two entries are stat-ed in order): do so after
			// every other listing, so both kinds are held to the snapshot.
			// An entry may be the flipping file, renamed away by now.
			if listings%2 == 1 && len(ents) > 1 {
				for _, e := range ents[:2] {
					if _, err := c.M.Stat(c.P, c.S.User, "/snap/"+e.Name); err != nil && err != vfs.ErrNotExist {
						c.Errorf("stat of listing %d's entry %s: %v", listings, e.Name, err)
					}
				}
			}
			c.P.Sleep(10 * time.Microsecond) // a zero-cost provider must still let the flipper run
		}
		if listings < 4 {
			c.Errorf("only %d listings overlapped %d renames: the case exercised nothing", listings, flips)
		}
	}},

	{name: "ReshardGrowShrinkPreservesNamespace", needs: CapHandoff, wants: wantsReshard, fn: func(c *C) {
		// Grow the plane, verify every row survived the migration, keep
		// mutating, shrink back, verify again: the WAL-handoff protocol
		// must make the whole round trip invisible to clients.
		for d := 0; d < 4; d++ {
			c.must(c.M.MkdirAll(c.P, c.S.User, fmt.Sprintf("/rs/d%d", d), 0755), "mkdirall")
			for f := 0; f < 2; f++ {
				c.write(c.S.User, fmt.Sprintf("/rs/d%d/f%d", d, f), int64(100+10*d+f))
			}
		}
		base := c.S.shards()
		c.must(c.S.Reshard(c.P, base*2), "grow reshard")
		for d := 0; d < 4; d++ {
			for f := 0; f < 2; f++ {
				want := int64(100 + 10*d + f)
				if got := c.size(c.S.User, fmt.Sprintf("/rs/d%d/f%d", d, f)); got != want {
					c.Errorf("/rs/d%d/f%d after grow: size %d, want %d", d, f, got, want)
				}
			}
		}
		c.must(c.M.Rename(c.P, c.S.User, "/rs/d0/f0", "/rs/d3/moved"), "rename on grown plane")
		c.must(c.M.Unlink(c.P, c.S.User, "/rs/d1/f1"), "unlink on grown plane")
		c.must(c.S.Reshard(c.P, base), "shrink reshard")
		if got := c.size(c.S.User, "/rs/d3/moved"); got != 100 {
			c.Errorf("moved file after shrink: size %d, want 100", got)
		}
		_, err := c.M.Stat(c.P, c.S.User, "/rs/d1/f1")
		c.wantErr(err, vfs.ErrNotExist, "unlinked file after shrink")
		ents, err := c.M.Readdir(c.P, c.S.User, "/rs")
		if c.must(err, "readdir after round trip") && len(ents) != 4 {
			c.Errorf("/rs has %d entries after round trip, want 4", len(ents))
		}
	}},

	{name: "ReshardThenCrashRecoverReplay", needs: CapHandoff | CapCrashRecover, wants: func(s *System) string {
		if r := wantsReshard(s); r != "" {
			return r
		}
		return wantsCrashRecover(s)
	}, fn: func(c *C) {
		// The handoff contract outlives the migration: rows moved by a
		// settled reshard must recover from their new owner's log after
		// a whole-plane crash (the importer forced them durable before
		// the source deleted its copies).
		for i := 0; i < 8; i++ {
			c.write(c.S.User, fmt.Sprintf("/h%d", i), int64(50+i))
		}
		c.must(c.S.Reshard(c.P, c.S.shards()*2), "grow reshard")
		c.P.Sleep(settle)
		c.S.Crash()
		c.S.Recover(c.P)
		for i := 0; i < 8; i++ {
			want := int64(50 + i)
			if got := c.size(c.S.User, fmt.Sprintf("/h%d", i)); got != want {
				c.Errorf("/h%d after reshard+crash+recover: size %d, want %d", i, got, want)
			}
		}
		c.create(c.S.User, "/hnew", 0644)
	}},
}
