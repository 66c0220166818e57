package rpc

import (
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

// TestBatchingCoalesces drives many concurrent callers through one
// batched Conn: every request must be answered exactly once, and the
// wire round trips must be strictly fewer than the requests.
func TestBatchingCoalesces(t *testing.T) {
	env, net, client, server := testNet(2)
	c := Dial(net, client, server, true)
	const callers = 16
	done := make([]bool, callers)
	for i := 0; i < callers; i++ {
		i := i
		env.Spawn("caller", func(p *sim.Proc) {
			for j := 0; j < 8; j++ {
				ran := false
				c.Call(p, Request{Op: OpCreate, ReqBytes: 128, CPU: 50 * time.Microsecond,
					Run: func(p *sim.Proc) { ran = true }, RespFixed: 64})
				if !ran {
					t.Errorf("caller %d call %d: body never ran", i, j)
					return
				}
			}
			done[i] = true
		})
	}
	env.MustRun()
	for i, d := range done {
		if !d {
			t.Fatalf("caller %d never finished", i)
		}
	}
	if c.Stats.Calls != callers*8 {
		t.Fatalf("calls=%d, want %d", c.Stats.Calls, callers*8)
	}
	if c.Stats.Wire >= c.Stats.Calls {
		t.Fatalf("no coalescing: %d round trips for %d calls", c.Stats.Wire, c.Stats.Calls)
	}
	if c.Stats.Batches == 0 || c.Stats.Batched == 0 {
		t.Fatalf("no batches formed: %+v", c.Stats)
	}
}

// TestBatchingDeterministic repeats a concurrent batched run and
// requires identical virtual completion times.
func TestBatchingDeterministic(t *testing.T) {
	run := func() time.Duration {
		env, net, client, server := testNet(7)
		c := Dial(net, client, server, true)
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
		t.Fatalf("nondeterministic batching: %v vs %v", a, b)
	}
}

// TestBatchRespectsMaxBatch floods the conn far past MaxBatch and
// checks no single round trip exceeded the cap (every call still
// completes).
func TestBatchRespectsMaxBatch(t *testing.T) {
	env, net, client, server := testNet(3)
	c := Dial(net, client, server, true)
	const callers = MaxBatch * 2
	completed := 0
	for i := 0; i < callers; i++ {
		env.Spawn("caller", func(p *sim.Proc) {
			c.Call(p, Request{ReqBytes: 64, CPU: 20 * time.Microsecond,
				Run: func(p *sim.Proc) {}, RespFixed: 32})
			completed++
		})
	}
	env.MustRun()
	if completed != callers {
		t.Fatalf("completed %d of %d calls", completed, callers)
	}
	// Wire trips must be at least ceil(callers / MaxBatch).
	if min := int64(callers / MaxBatch); c.Stats.Wire < min {
		t.Fatalf("wire=%d below the MaxBatch floor %d", c.Stats.Wire, min)
	}
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
