package core

import (
	"testing"

	"cofs/internal/cluster"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// TestMetadataRPCAllocs pins the transport's allocation floor: with the
// client cache off, a Lookup and a Getattr through the MDSCluster are
// one RPC each, and neither the request nor the closures carrying the
// operation body leave the caller's stack.
func TestMetadataRPCAllocs(t *testing.T) {
	skipUnderRace(t)
	tb, d := Rig(t, 1, 1)
	tb.Env.Spawn("pin", func(p *sim.Proc) {
		svc, sess := d.Service, d.FSs[0].Session()
		attr, err := svc.Create(p, sess, cluster.Ctx(0, 1), RootID, "f", vfs.TypeRegular, 0644, "", "")
		if err != nil {
			panic(err)
		}
		calls := svc.Stats().Requests
		lookup := func() {
			if _, err := svc.Lookup(p, sess, RootID, "f"); err != nil {
				panic(err)
			}
		}
		getattr := func() {
			if _, err := svc.Getattr(p, sess, attr.Ino); err != nil {
				panic(err)
			}
		}
		for _, c := range []struct {
			name string
			fn   func()
		}{{"Lookup", lookup}, {"Getattr", getattr}} {
			c.fn()
			if n := testing.AllocsPerRun(1000, c.fn); n > 0.05 {
				t.Errorf("%s allocates %v per call, want <= 0.05", c.name, n)
			}
		}
		if got := svc.Stats().Requests - calls; got != 2*1002 {
			t.Errorf("%d service requests for 2004 calls: the cache served some", got)
		}
	})
	tb.Run()
}

// TestPermanentRedirectFails: a plane whose shards bounce every request,
// even one routed by the current map, fails the operation with
// ErrWrongEpoch after maxRedirects map refetches instead of retrying
// forever. Swapping the two shards' ids makes each disown the rows the
// map gives it.
func TestPermanentRedirectFails(t *testing.T) {
	tb, d := Rig(t, 1, 2, Shards(2))
	Play(t, tb, d, Create(0, "/f", 0644))
	c := d.Service
	c.shards[0].shardID, c.shards[1].shardID = c.shards[1].shardID, c.shards[0].shardID
	refetches := c.rstats.Refetches
	Expect(t, tb, d, ErrWrongEpoch, Stat(1, "/f"))
	if got := c.rstats.Refetches - refetches; got != maxRedirects {
		t.Fatalf("%d map refetches, want %d", got, maxRedirects)
	}
}
