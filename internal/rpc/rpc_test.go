package rpc

import (
	"math"
	"runtime/debug"
	"testing"
	"time"

	"cofs/internal/netsim"
	"cofs/internal/params"
	"cofs/internal/sim"
)

func testNet(seed int64) (*sim.Env, *netsim.Net, *netsim.Host, *netsim.Host) {
	env := sim.NewEnv(seed)
	net := netsim.New(env, params.Default().Network)
	client := net.AddHost("client", 2, 0)
	server := net.AddHost("server", 4, 0)
	return env, net, client, server
}

// TestUnbatchedCallMatchesNetsimCall pins the cost-identity contract:
// a single Call on an un-batched Conn must charge exactly what the
// netsim.Call it replaced charged (same transfers, same CPU, same
// virtual duration).
func TestUnbatchedCallMatchesNetsimCall(t *testing.T) {
	const cpu = 200 * time.Microsecond
	run := func(useConn bool) time.Duration {
		env, net, client, server := testNet(1)
		var elapsed time.Duration
		env.Spawn("t", func(p *sim.Proc) {
			start := p.Now()
			if useConn {
				c := Dial(net, client, server, false)
				c.Call(p, Request{Op: OpGetattr, ReqBytes: 96, CPU: cpu,
					Run: func(p *sim.Proc) {}, RespFixed: 192})
			} else {
				netsim.Call(p, net, client, server, 96, 192, func(p *sim.Proc) struct{} {
					p.Sleep(cpu)
					return struct{}{}
				})
			}
			elapsed = p.Now() - start
		})
		env.MustRun()
		return elapsed
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("un-batched Call costs %v, netsim.Call costs %v", a, b)
	}
}

// TestConcurrentCallsOverlap: two calls issued at the same instant on
// one Conn to a 4-worker server both finish at the single-call latency.
// The NICs are unbounded so the calls share nothing but the server's
// workers, of which there are enough; neither waits out the other's
// round trip.
func TestConcurrentCallsOverlap(t *testing.T) {
	req := Request{Op: OpGetattr, ReqBytes: 96, CPU: 200 * time.Microsecond,
		Run: func(p *sim.Proc) {}, RespFixed: 192}
	run := func(callers int) []time.Duration {
		env := sim.NewEnv(2)
		np := params.Default().Network
		np.EdgeBandwidth, np.UplinkBandwidth = math.Inf(1), math.Inf(1)
		net := netsim.New(env, np)
		c := Dial(net, net.AddHost("client", 2, 0), net.AddHost("server", 4, 0), false)
		done := make([]time.Duration, callers)
		for i := range done {
			env.Spawn("caller", func(p *sim.Proc) {
				c.Call(p, req)
				done[i] = p.Now()
			})
		}
		env.MustRun()
		if c.Stats.Calls != int64(callers) || c.Stats.Wire != int64(callers) {
			t.Fatalf("%d callers: %+v, want one round trip per call", callers, c.Stats)
		}
		return done
	}
	single := run(1)[0]
	for i, d := range run(2) {
		if d != single {
			t.Errorf("call %d finished at %v, a lone call at %v", i, d, single)
		}
	}
}

// TestConcurrentCallsDeterministic repeats a run of concurrent callers
// on one Conn and requires identical virtual completion times.
func TestConcurrentCallsDeterministic(t *testing.T) {
	run := func() time.Duration {
		env, net, client, server := testNet(7)
		c := Dial(net, client, server, false)
		for i := 0; i < 8; i++ {
			env.Spawn("caller", func(p *sim.Proc) {
				for j := 0; j < 4; j++ {
					c.Call(p, Request{ReqBytes: 100, CPU: 30 * time.Microsecond,
						Run: func(p *sim.Proc) {}, RespFixed: 100})
				}
			})
		}
		env.MustRun()
		return env.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic concurrent calls: %v vs %v", a, b)
	}
}

// TestCallAllocsNothing pins the one-exchange path: a call whose body
// captures a local allocates nothing, because no request outlives its
// caller's stack.
func TestCallAllocsNothing(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates")
			}
		}
	}
	env, net, client, server := testNet(3)
	c := Dial(net, client, server, false)
	env.Spawn("t", func(p *sim.Proc) {
		served := 0
		call := func() {
			c.Call(p, Request{Op: OpGetattr, ReqBytes: 96, CPU: 10 * time.Microsecond,
				Run: func(p *sim.Proc) { served++ }, RespFixed: 192})
		}
		call()
		if n := testing.AllocsPerRun(1000, call); n != 0 {
			t.Errorf("Call allocates %v, want 0", n)
		}
		if served != 1002 {
			t.Errorf("served %d calls, want 1002", served)
		}
	})
	env.MustRun()
}

// TestDynamicResponseSize checks RespBytes is evaluated after Run (the
// ReaddirPlus contract: the reply size depends on served data).
func TestDynamicResponseSize(t *testing.T) {
	env, net, client, server := testNet(4)
	c := Dial(net, client, server, false)
	env.Spawn("t", func(p *sim.Proc) {
		entries := 0
		c.Call(p, Request{Op: OpReaddir, ReqBytes: 96, CPU: 10 * time.Microsecond,
			Run:       func(p *sim.Proc) { entries = 5 },
			RespBytes: func() int64 { return 96 + int64(entries)*160 }})
		if entries != 5 {
			t.Errorf("body did not run before RespBytes")
		}
	})
	before := net.Bytes
	env.MustRun()
	// 96 req + (96+5*160) resp (netsim counts payload bytes; the
	// per-message header overhead is charged in time, not here).
	want := int64(96 + 96 + 5*160)
	if got := net.Bytes - before; got != want {
		t.Fatalf("moved %d bytes, want %d", got, want)
	}
}
