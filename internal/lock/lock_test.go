package lock

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"cofs/internal/netsim"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// fakeClient counts revocations and charges a fixed flush time.
type fakeClient struct {
	host    *netsim.Host
	cache   *Cache
	flush   time.Duration
	revokes int
}

func (f *fakeClient) Host() *netsim.Host { return f.host }

func (f *fakeClient) Revoke(p *sim.Proc, r Resource, to Mode) {
	f.revokes++
	f.cache.Downgrade(r, to)
	if f.flush > 0 {
		p.Sleep(f.flush)
	}
}

func (f *fakeClient) Granted(r Resource, mode Mode) { f.cache.Set(r, mode) }

type rig struct {
	env     *sim.Env
	net     *netsim.Net
	mgr     *Manager
	clients []*fakeClient
}

func newRig(t *testing.T, nClients int, flush time.Duration) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	net := netsim.New(env, params.Default().Network)
	srv := net.AddHost("tokensrv", 8, 0)
	mgr := NewManager(net, srv, 100*time.Microsecond)
	r := &rig{env: env, net: net, mgr: mgr}
	for i := 0; i < nClients; i++ {
		h := net.AddHost("client", 2, 0)
		r.clients = append(r.clients, &fakeClient{host: h, cache: NewCache(), flush: flush})
	}
	return r
}

func TestModeString(t *testing.T) {
	if ModeNone.String() != "none" || ModeShared.String() != "shared" || ModeExclusive.String() != "exclusive" {
		t.Fatal("mode strings wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Fatal("unknown mode string wrong")
	}
}

func TestSharedGrantsCoexist(t *testing.T) {
	rg := newRig(t, 3, 0)
	res := Resource{Kind: 1, ID: 7}
	for _, c := range rg.clients {
		client := c
		rg.env.Spawn("acq", func(p *sim.Proc) {
			rg.mgr.Acquire(p, client, res, ModeShared)
			client.cache.Set(res, ModeShared)
		})
	}
	rg.env.MustRun()
	if got := rg.mgr.Holders(res); got != 3 {
		t.Fatalf("holders=%d, want 3", got)
	}
	for _, c := range rg.clients {
		if c.revokes != 0 {
			t.Fatalf("shared acquire caused %d revokes", c.revokes)
		}
	}
	if err := rg.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveRevokesShared(t *testing.T) {
	rg := newRig(t, 3, 0)
	res := Resource{Kind: 1, ID: 7}
	rg.env.Spawn("seq", func(p *sim.Proc) {
		rg.mgr.Acquire(p, rg.clients[0], res, ModeShared)
		rg.mgr.Acquire(p, rg.clients[1], res, ModeShared)
		rg.mgr.Acquire(p, rg.clients[2], res, ModeExclusive)
	})
	rg.env.MustRun()
	if rg.clients[0].revokes != 1 || rg.clients[1].revokes != 1 {
		t.Fatalf("revokes = %d,%d, want 1,1", rg.clients[0].revokes, rg.clients[1].revokes)
	}
	if got := rg.mgr.HolderMode(rg.clients[2], res); got != ModeExclusive {
		t.Fatalf("holder mode %v", got)
	}
	if got := rg.mgr.Holders(res); got != 1 {
		t.Fatalf("holders=%d, want 1", got)
	}
	if err := rg.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedDowngradesExclusive(t *testing.T) {
	rg := newRig(t, 2, 0)
	res := Resource{Kind: 2, ID: 1}
	rg.env.Spawn("seq", func(p *sim.Proc) {
		rg.mgr.Acquire(p, rg.clients[0], res, ModeExclusive)
		rg.mgr.Acquire(p, rg.clients[1], res, ModeShared)
	})
	rg.env.MustRun()
	if got := rg.mgr.HolderMode(rg.clients[0], res); got != ModeShared {
		t.Fatalf("old holder downgraded to %v, want shared", got)
	}
	if got := rg.mgr.Holders(res); got != 2 {
		t.Fatalf("holders=%d, want 2", got)
	}
}

func TestUpgradeSharedToExclusive(t *testing.T) {
	rg := newRig(t, 2, 0)
	res := Resource{Kind: 1, ID: 3}
	rg.env.Spawn("seq", func(p *sim.Proc) {
		rg.mgr.Acquire(p, rg.clients[0], res, ModeShared)
		rg.mgr.Acquire(p, rg.clients[1], res, ModeShared)
		rg.mgr.Acquire(p, rg.clients[0], res, ModeExclusive)
	})
	rg.env.MustRun()
	if rg.clients[1].revokes != 1 {
		t.Fatalf("other shared holder revokes=%d, want 1", rg.clients[1].revokes)
	}
	if got := rg.mgr.HolderMode(rg.clients[0], res); got != ModeExclusive {
		t.Fatalf("mode %v, want exclusive", got)
	}
	if err := rg.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPingPongCostsGrow(t *testing.T) {
	// Exclusive alternation between two nodes must cost revocation
	// round-trips + flushes; repeated single-node acquisition is cheap.
	flush := 2 * time.Millisecond
	rg := newRig(t, 2, flush)
	res := Resource{Kind: 3, ID: 9}
	var pingPong, rehold time.Duration
	rg.env.Spawn("seq", func(p *sim.Proc) {
		rg.mgr.Acquire(p, rg.clients[0], res, ModeExclusive)
		start := p.Now()
		rg.mgr.Acquire(p, rg.clients[1], res, ModeExclusive) // must revoke+flush
		pingPong = p.Now() - start
		start = p.Now()
		rg.mgr.Acquire(p, rg.clients[1], res, ModeExclusive) // already held
		rehold = p.Now() - start
	})
	rg.env.MustRun()
	if pingPong < flush {
		t.Fatalf("transfer %v should include flush %v", pingPong, flush)
	}
	if rehold >= pingPong/2 {
		t.Fatalf("re-hold %v not much cheaper than transfer %v", rehold, pingPong)
	}
	if rg.mgr.Stats.Transfers != 1 {
		t.Fatalf("transfers=%d, want 1", rg.mgr.Stats.Transfers)
	}
}

func TestContendedExclusiveSerializesFIFO(t *testing.T) {
	// N clients acquiring the same exclusive token queue up: mean
	// latency grows with N — the Fig. 2 create mechanism.
	lat := func(n int) time.Duration {
		rg := newRig(t, n, time.Millisecond)
		res := Resource{Kind: 4, ID: 1}
		var total time.Duration
		wg := sim.NewWaitGroup(rg.env)
		for _, c := range rg.clients {
			client := c
			wg.Go("acq", func(p *sim.Proc) {
				start := p.Now()
				rg.mgr.Acquire(p, client, res, ModeExclusive)
				total += p.Now() - start
			})
		}
		rg.env.MustRun()
		if err := rg.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return total / time.Duration(n)
	}
	l4, l8 := lat(4), lat(8)
	if l8 <= l4 {
		t.Fatalf("8-way contention %v not worse than 4-way %v", l8, l4)
	}
}

func TestReleaseRemovesHolder(t *testing.T) {
	rg := newRig(t, 2, 0)
	res := Resource{Kind: 1, ID: 5}
	rg.env.Spawn("seq", func(p *sim.Proc) {
		rg.mgr.Acquire(p, rg.clients[0], res, ModeExclusive)
		rg.mgr.Release(p, rg.clients[0], res)
		// Next acquire by the other client must not revoke anyone.
		rg.mgr.Acquire(p, rg.clients[1], res, ModeExclusive)
	})
	rg.env.MustRun()
	if rg.clients[0].revokes != 0 {
		t.Fatalf("released holder still revoked %d times", rg.clients[0].revokes)
	}
	if rg.mgr.Stats.Transfers != 0 {
		t.Fatalf("transfers=%d, want 0", rg.mgr.Stats.Transfers)
	}
}

func TestReleaseLocal(t *testing.T) {
	rg := newRig(t, 1, 0)
	res := Resource{Kind: 1, ID: 6}
	rg.env.Spawn("seq", func(p *sim.Proc) {
		rg.mgr.Acquire(p, rg.clients[0], res, ModeShared)
	})
	rg.env.MustRun()
	rg.mgr.ReleaseLocal(rg.clients[0], res)
	if rg.mgr.Holders(res) != 0 {
		t.Fatal("ReleaseLocal did not remove holder")
	}
}

func TestReacquireHeldIsLocalGrant(t *testing.T) {
	rg := newRig(t, 1, 0)
	res := Resource{Kind: 1, ID: 8}
	rg.env.Spawn("seq", func(p *sim.Proc) {
		rg.mgr.Acquire(p, rg.clients[0], res, ModeExclusive)
		rg.mgr.Acquire(p, rg.clients[0], res, ModeShared) // weaker: no-op
	})
	rg.env.MustRun()
	if rg.mgr.Stats.LocalGrants != 2 {
		t.Fatalf("local grants=%d, want 2", rg.mgr.Stats.LocalGrants)
	}
	if got := rg.mgr.HolderMode(rg.clients[0], res); got != ModeExclusive {
		t.Fatalf("mode %v, want exclusive retained", got)
	}
}

func TestCache(t *testing.T) {
	tc := NewCache()
	r := Resource{Kind: 1, ID: 1}
	if tc.Has(r, ModeShared) {
		t.Fatal("empty cache claims token")
	}
	tc.Set(r, ModeExclusive)
	if !tc.Has(r, ModeShared) || !tc.Has(r, ModeExclusive) {
		t.Fatal("exclusive should satisfy both modes")
	}
	tc.Downgrade(r, ModeShared)
	if tc.Has(r, ModeExclusive) || !tc.Has(r, ModeShared) {
		t.Fatal("downgrade to shared wrong")
	}
	tc.Downgrade(r, ModeNone)
	if tc.Has(r, ModeShared) || tc.Len() != 0 {
		t.Fatal("downgrade to none should remove")
	}
	// Downgrade never upgrades.
	tc.Set(r, ModeShared)
	tc.Downgrade(r, ModeExclusive)
	if tc.Mode(r) != ModeShared {
		t.Fatal("downgrade upgraded the mode")
	}
}

func TestManyTokensIndependent(t *testing.T) {
	rg := newRig(t, 4, time.Millisecond)
	// Each client hammers its own token: no cross-client conflicts, all
	// grants local after the first.
	wg := sim.NewWaitGroup(rg.env)
	for i, c := range rg.clients {
		client, id := c, uint64(i)
		wg.Go("acq", func(p *sim.Proc) {
			for j := 0; j < 10; j++ {
				rg.mgr.Acquire(p, client, Resource{Kind: 5, ID: id}, ModeExclusive)
			}
		})
	}
	rg.env.MustRun()
	if rg.mgr.Stats.Revocations != 0 {
		t.Fatalf("revocations=%d, want 0", rg.mgr.Stats.Revocations)
	}
	if err := rg.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheClear(t *testing.T) {
	c := NewCacheSized(8)
	for i := 0; i < 5; i++ {
		c.Set(Resource{Kind: 1, ID: uint64(i)}, ModeExclusive)
	}
	if c.Len() != 5 {
		t.Fatalf("len=%d, want 5", c.Len())
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("len after clear=%d, want 0", c.Len())
	}
	if c.Has(Resource{Kind: 1, ID: 2}, ModeShared) {
		t.Fatal("cleared cache still reports a token")
	}
}

// nopClient is a lock.Client whose callbacks do nothing, so an
// allocation count sees the manager alone.
type nopClient struct{ host *netsim.Host }

func (c *nopClient) Host() *netsim.Host                      { return c.host }
func (c *nopClient) Revoke(p *sim.Proc, r Resource, to Mode) {}
func (c *nopClient) Granted(r Resource, mode Mode)           {}

// TestTokenGrantAllocsNothing: a token's state comes from the manager's
// slab and goes back when its last holder leaves, its first holders live
// inline, and a grant takes its revocation snapshot on the stack, so
// granting a fresh resource to two holders, stealing it and releasing it
// allocates nothing once warm.
func TestTokenGrantAllocsNothing(t *testing.T) {
	skipUnderRace(t)
	rg := newRig(t, 2, 0)
	a, b := &nopClient{host: rg.clients[0].host}, &nopClient{host: rg.clients[1].host}
	var id uint64
	rg.env.Spawn("pin", func(p *sim.Proc) {
		cycle := func() {
			id++
			r := Resource{Kind: 1, ID: id} // a new file's token
			rg.mgr.Acquire(p, a, r, ModeShared)
			rg.mgr.GrantInline(p, b, r, ModeShared)
			rg.mgr.Acquire(p, a, r, ModeExclusive) // revokes b
			rg.mgr.Release(p, a, r)
		}
		for i := 0; i < 1000; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(1000, cycle); n != 0 {
			t.Errorf("grant, steal and release of a fresh token allocates %v, want 0", n)
		}
	})
	rg.env.MustRun()
	if rg.mgr.Stats.Revocations != 2001 {
		t.Errorf("revocations = %d, want one per cycle (2001)", rg.mgr.Stats.Revocations)
	}
	if len(rg.mgr.tokens) != 0 {
		t.Errorf("%d tokens left after every holder released, want 0", len(rg.mgr.tokens))
	}
}

func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates")
			}
		}
	}
}

// TestTokenMutexNamesResource: a token's mutex carries no formatted
// name, yet its panics still name the token's resource.
func TestTokenMutexNamesResource(t *testing.T) {
	rg := newRig(t, 1, 0)
	tok := rg.mgr.token(Resource{Kind: 3, ID: 42})
	var msg string
	rg.env.Spawn("stray-unlock", func(p *sim.Proc) {
		defer func() { msg = fmt.Sprint(recover()) }()
		tok.mu.Unlock(p)
	})
	rg.env.MustRun()
	if !strings.Contains(msg, `"token:3/42"`) {
		t.Fatalf("unlock by a non-owner panicked with %q, want it to name token:3/42", msg)
	}
}
