package core

import (
	"runtime/debug"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// skipUnderRace skips an allocation pin in a -race build, whose
// instrumentation allocates on its own.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates")
			}
		}
	}
}

// TestLeaseGrantAllocsNothing pins the holder slab: re-granting a key
// held by one or by sixteen sessions allocates nothing, both while the
// leases are live (renewed in place) and once they have lapsed (pruned
// to the free list and re-granted from it), and neither does a key that
// is granted and revoked again.
func TestLeaseGrantAllocsNothing(t *testing.T) {
	skipUnderRace(t)
	const term = time.Second
	for _, holders := range []int{1, 16} {
		lt := newLeaseTable(term)
		sessions := make([]*Session, holders)
		for i := range sessions {
			sessions[i] = &Session{node: i}
		}
		key := dentLease(7, "shared")
		var now time.Duration
		grantAll := func() {
			for _, s := range sessions {
				lt.grant(now, key, s)
			}
		}
		grantAll()
		if n := testing.AllocsPerRun(100, grantAll); n != 0 {
			t.Errorf("%d holders: renewing allocates %v, want 0", holders, n)
		}
		if n := testing.AllocsPerRun(100, func() { now += term; grantAll() }); n != 0 {
			t.Errorf("%d holders: re-granting lapsed leases allocates %v, want 0", holders, n)
		}
		if len(lt.slab) != holders {
			t.Errorf("%d holders use %d slab slots", holders, len(lt.slab))
		}
	}
	// A key leased and then revoked by its own holder — a create's
	// negative dentry — comes and goes without allocating either.
	lt, sess := newLeaseTable(term), &Session{}
	key := dentLease(7, "new")
	cycle := func() {
		lt.grant(0, key, sess)
		lt.revoke(0, key, sess)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("grant+revoke of a new key allocates %v, want 0", n)
	}
}

// TestLeaseRevokeFreesHolders checks revoke against the holder list: it
// returns the live holders other than the exempt one, by node, and
// frees every slot for the next grant.
func TestLeaseRevokeFreesHolders(t *testing.T) {
	const term = time.Second
	lt := newLeaseTable(term)
	s := []*Session{{node: 3}, {node: 1}, {node: 2}, {node: 0}}
	key := attrLease(9)
	lt.grant(0, key, s[0])                              // lapses before the revoke
	for _, sess := range []*Session{s[1], s[2], s[3]} { // live
		lt.grant(term/2, key, sess)
	}
	victims := lt.revoke(term, key, s[3])
	if len(victims) != 2 || victims[0] != s[1] || victims[1] != s[2] {
		t.Fatalf("victims %v, want nodes 1 and 2", victims)
	}
	if _, ok := lt.attrs[9]; ok {
		t.Fatal("revoked key still has holders")
	}
	lt.grant(term, attrLease(10), s[0])
	if len(lt.slab) != 4 {
		t.Fatalf("%d slab slots after revoke and re-grant, want the 4 reused", len(lt.slab))
	}
}

// TestLeaseRecallAllocsNothing pins the recall path: a mutation's revoke
// of a name and an inode that two other clients hold leases on — two
// victims, each recalled once — allocates nothing, and neither do two
// such revokes of two files overlapping on the shard, the second
// committed while the first's recalls are on the wire. The lease table
// returns its victims in a buffer of its own, and each revokeLeases
// dedups them in a buffer it takes from the shard's free list and puts
// back when its recalls are done.
func TestLeaseRecallAllocsNothing(t *testing.T) {
	skipUnderRace(t)
	tb, d := Rig(t, 1, 3, Leases)
	tb.Env.Spawn("pin", func(p *sim.Proc) {
		svc, mutator := d.Service, d.FSs[0].Session()
		var files []vfs.Attr
		for _, name := range []string{"f", "g"} {
			attr, err := svc.Create(p, mutator, cluster.Ctx(0, 1), RootID, name, vfs.TypeRegular, 0644, "", "")
			if err != nil {
				panic(err)
			}
			files = append(files, attr)
		}
		s := svc.shard(files[0].Ino)
		if svc.shard(files[1].Ino) != s {
			t.Fatal("the two files live on different shards")
		}
		revocations := s.Stats.Revocations
		lease := func(name string) {
			for _, fs := range d.FSs[1:] {
				if _, err := svc.Lookup(p, fs.Session(), RootID, name); err != nil {
					panic(err)
				}
			}
		}
		revoke := func(p *sim.Proc, name string, ino vfs.Ino) {
			s.host.CPU.Acquire(p)
			s.revokeLeases(p, mutator, dentLease(RootID, name), attrLease(ino))
			s.host.CPU.Release(p)
		}
		recall := func() {
			lease("f")
			revoke(p, "f", files[0].Ino)
		}
		// The overlapping revoke of g runs on a recycled process, woken
		// by the revoke of f releasing the shard's CPU for its recalls.
		overlapped, done := false, sim.NewCond(tb.Env)
		second := func(p *sim.Proc) {
			revoke(p, "g", files[1].Ino)
			overlapped = true
			done.Signal()
		}
		overlap := func() {
			lease("f")
			lease("g")
			overlapped = false
			tb.Env.Go("second", second)
			revoke(p, "f", files[0].Ino)
			for !overlapped {
				done.Wait(p)
			}
		}
		recall()
		if n := testing.AllocsPerRun(100, recall); n > 0.05 {
			t.Errorf("a recall with two victims allocates %v, want 0", n)
		}
		// Two sessions, two keys each, over 102 rounds.
		if got := s.Stats.Revocations - revocations; got != 2*2*102 {
			t.Errorf("%d revocations, want %d", got, 2*2*102)
		}
		overlap()
		if len(s.recalls) != 2 {
			t.Errorf("%d idle victim buffers after overlapping recalls, want 2", len(s.recalls))
		}
		if n := testing.AllocsPerRun(100, overlap); n > 0.05 {
			t.Errorf("two overlapping recalls allocate %v, want 0", n)
		}
	})
	tb.Run()
}
