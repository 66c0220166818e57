package main

import (
	"time"

	"cofs/internal/disk"
	"cofs/internal/mdb"
	"cofs/internal/netsim"
	"cofs/internal/params"
	"cofs/internal/rpc"
	"cofs/internal/sim"
)

// Layer probes: each drives one layer alone, through its public API, and
// reports the host nanoseconds (and, where the layer models a cost, the
// virtual milliseconds) one unit of its work takes. They put a floor
// under host.ops_per_s: an operation is so many events, spawns,
// handoffs, calls and commits. Sizes are fixed; together they take
// well under three seconds.
const (
	probeProcs    = 64
	probeSleeps   = 3000
	probeWaves    = 300
	probeWaveSize = 100
	probeHandoffs = 100000
	probeCalls    = 40000
)

// timeSim runs the environment to completion and returns host
// nanoseconds per unit and virtual milliseconds per unit.
func timeSim(env *sim.Env, units int) (hostNs, vtMs float64) {
	t0 := time.Now()
	env.MustRun()
	return float64(time.Since(t0).Nanoseconds()) / float64(units), ms(env.Now()) / float64(units)
}

func runProbes(cfg params.Config) map[string]float64 {
	out := map[string]float64{}

	// sim: timer events — N processes each sleeping M times.
	env := sim.NewEnv(1)
	for i := 0; i < probeProcs; i++ {
		step := time.Duration(i+1) * time.Microsecond
		env.Spawn("probe.sleep", func(p *sim.Proc) {
			for j := 0; j < probeSleeps; j++ {
				p.Sleep(step)
			}
		})
	}
	out["sim.ns_per_event"], _ = timeSim(env, probeProcs*probeSleeps)

	// sim: spawn storm — waves of processes that exit at once.
	env = sim.NewEnv(1)
	env.Spawn("probe.spawner", func(p *sim.Proc) {
		for w := 0; w < probeWaves; w++ {
			for i := 0; i < probeWaveSize; i++ {
				env.Spawn("probe.child", func(*sim.Proc) {})
			}
			p.Sleep(time.Nanosecond)
		}
	})
	out["sim.ns_per_spawn"], _ = timeSim(env, probeWaves*probeWaveSize)

	// sim: contended mutex ping-pong — every acquisition parks behind
	// the other process and is handed the lock on its release.
	env = sim.NewEnv(1)
	mu := sim.NewMutex(env, "probe.mu")
	for i := 0; i < 2; i++ {
		env.Spawn("probe.pingpong", func(p *sim.Proc) {
			for j := 0; j < probeHandoffs/2; j++ {
				mu.Lock(p)
				p.Sleep(time.Nanosecond)
				mu.Unlock(p)
			}
		})
	}
	out["sim.ns_per_handoff"], _ = timeSim(env, probeHandoffs)

	// netsim.Call and an unbatched rpc.Conn.Call between two hosts, with
	// the metadata service's CPU charge as the handler.
	cpu := cfg.COFS.ServiceCPUPerOp
	env = sim.NewEnv(1)
	net := netsim.New(env, cfg.Network)
	a, b := net.AddHost("probe-a", 2, 0), net.AddHost("probe-b", 2, 0)
	env.Spawn("probe.netcall", func(p *sim.Proc) {
		for i := 0; i < probeCalls; i++ {
			netsim.Call(p, net, a, b, 128, 128, func(p *sim.Proc) int { p.Sleep(cpu); return 0 })
		}
	})
	out["netsim.call_ns"], out["netsim.call_vt_ms"] = timeSim(env, probeCalls)

	env = sim.NewEnv(1)
	net = netsim.New(env, cfg.Network)
	a, b = net.AddHost("probe-a", 2, 0), net.AddHost("probe-b", 2, 0)
	conn := rpc.Dial(net, a, b, false)
	env.Spawn("probe.rpccall", func(p *sim.Proc) {
		for i := 0; i < probeCalls; i++ {
			conn.Call(p, rpc.Request{Op: rpc.OpGetattr, ReqBytes: 128, CPU: cpu, Run: func(*sim.Proc) {}, RespFixed: 128})
		}
	})
	out["rpc.call_ns"], out["rpc.call_vt_ms"] = timeSim(env, probeCalls)

	// mdb: one-row durable transactions against an async-flushed log.
	env = sim.NewEnv(1)
	db := mdb.NewAsync(env, disk.New(env, "probe-disk", cfg.Disk), cfg.COFS.DBOpTime, cfg.COFS.LogFlushInterval)
	tbl := mdb.NewTable[int, int](db, "probe", mdb.DiscCopies)
	var commitEnd time.Duration
	env.Spawn("probe.txn", func(p *sim.Proc) {
		for i := 0; i < probeCalls; i++ {
			db.Transaction(p, func(tx *mdb.Tx) { mdb.Put(tx, tbl, i, i) })
		}
		commitEnd = p.Now()
	})
	out["mdb.txn_ns"], _ = timeSim(env, probeCalls)
	// The log flusher runs on after the last commit; charge the
	// transactions only the time they themselves took.
	out["mdb.txn_vt_ms"] = ms(commitEnd) / probeCalls
	return out
}
