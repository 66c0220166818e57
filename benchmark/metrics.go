package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json carries the
// same list; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening as a share of the median
}

// endToEnd are the metrics a user of the system (vt.*: the modelled
// file system, on the virtual clock) and of the simulator (host.*,
// setup_s: on the host clock) sees. None of them can be zero.
var endToEnd = []metricDef{
	{"vt.ops_per_s", "1/s", "higher", 0.10},
	{"vt.op_ms_mean", "ms", "lower", 0.05},
	{"vt.op_ms_p50", "ms", "lower", 0.10},
	{"vt.op_ms_p99", "ms", "lower", 0.25},
	{"host.ops_per_s", "1/s", "higher", 0.25},
	{"host.allocs_per_op", "1/op", "lower", 0.03},
	{"host.live_heap_MB", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// opKinds are the trace kinds with a vfs.<kind>_ms_mean line.
var opKinds = []string{"create", "stat", "utime", "open", "readdir", "rename", "unlink", "mkdir", "rmdir", "write", "read"}

// perLayer lists the metrics of the traced run. README.md says which
// end-to-end metric each should move, and on which workload.
var perLayer = func() []metricDef {
	lower := func(unit string, names ...string) (defs []metricDef) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
		return defs
	}
	higher := func(unit, name string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	var defs []metricDef
	add := func(d ...metricDef) { defs = append(defs, d...) }

	add(lower("ms", "vt.read_ms_mean", "vt.write_ms_mean")...)
	add(higher("MB/s", "vt.data_MBps"))
	add(lower("ms", "vfs.self_ms")...)
	for _, k := range opKinds {
		add(lower("ms", "vfs."+k+"_ms_mean")...)
	}
	add(lower("ms", "core.client_self_ms", "core.op_self_ms", "core.2pc_ms")...)
	add(higher("ratio", "core.cache_hit_ratio"), higher("1/op", "core.dentry_hits_per_op"))
	add(lower("1/op", "core.lease_installs_per_op", "core.lease_revoked_per_op", "core.mds_requests_per_op")...)
	add(lower("ratio", "core.shard_skew")...)
	add(lower("ms", "rpc.send_ms", "rpc.queue_ms", "rpc.serve_self_ms", "rpc.recv_ms")...)
	add(lower("1/op", "rpc.calls_per_op")...)
	add(lower("ratio", "rpc.roundtrips_per_call")...)
	add(higher("share", "rpc.batched_share"))
	add(lower("1/op", "rpc.peer_calls_per_op", "rpc.lease_recalls_per_op")...)
	add(lower("count", "rpc.queue_depth_high")...)
	add(lower("ms", "lock.wait_ms")...)
	add(lower("1/op", "lock.acquires_per_op")...)
	add(lower("ratio", "lock.conflict_ratio")...)
	add(higher("share", "lock.shared_share"))
	add(lower("1/op", "lock.token_acquires_per_op", "lock.token_revocations_per_op")...)
	add(lower("ms", "mdb.wal_ms")...)
	add(lower("1/op", "mdb.commits_per_op", "mdb.wal_records_per_op", "mdb.log_flushes_per_op")...)
	add(lower("share", "mdb.flush_busy_share")...)
	add(lower("ms", "mdb.recover_ms")...)
	add(lower("1/op", "disk.mds_syncs_per_op", "disk.mds_writes_per_op")...)
	add(lower("ms", "pfs.under_ms")...)
	add(lower("1/op", "pfs.under_calls_per_op", "pfs.meta_rpcs_per_op", "pfs.disk_reads_per_op", "pfs.commits_per_op")...)
	add(lower("ms", "pfs.bare_op_ms_mean")...)
	add(higher("ratio", "pfs.cofs_speedup"))
	add(lower("B/op", "blockstore.bytes_written_per_op", "blockstore.bytes_read_per_op")...)
	add(lower("1/op", "netsim.msgs_per_op")...)
	add(lower("B/op", "netsim.bytes_per_op")...)
	add(lower("ns", "sim.ns_per_event", "sim.ns_per_spawn", "sim.ns_per_handoff", "netsim.call_ns", "rpc.call_ns", "mdb.txn_ns")...)
	add(lower("ms", "netsim.call_vt_ms", "rpc.call_vt_ms", "mdb.txn_vt_ms")...)
	for _, b := range cpuBuckets {
		add(lower("share", "host.cpu_share."+b)...)
	}
	add(lower("ratio", "obs.trace_overhead_ratio")...)
	add(lower("1/op", "obs.spans_per_op")...)
	add(lower("ms", "budget.residual_ms")...)
	return defs
}()

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// endToEndValues reduces the timed passes of one run: virtual-time
// results are the median over the draws, host results the median over
// every pass (draws and repeats) — except the simulation rate, which is
// that of the best pass: the shared host only ever slows a pass down,
// in spells longer than a pass, so the median of a run wanders by 10 %
// where its best pass wanders by 4 %.
func endToEndValues(drawn, all []*pass) map[string]float64 {
	over := func(passes []*pass, f func(*pass) float64) float64 {
		v := make([]float64, len(passes))
		for i, ps := range passes {
			v[i] = f(ps)
		}
		return median(v)
	}
	var best float64
	for _, ps := range all {
		best = math.Max(best, float64(ps.VT.Ops)/ps.Host.WallS)
	}
	return map[string]float64{
		"vt.ops_per_s":       over(drawn, func(ps *pass) float64 { return ps.VT.OpsPerS }),
		"vt.op_ms_mean":      over(drawn, func(ps *pass) float64 { return ps.VT.MeanMs }),
		"vt.op_ms_p50":       over(drawn, func(ps *pass) float64 { return ps.VT.P50Ms }),
		"vt.op_ms_p99":       over(drawn, func(ps *pass) float64 { return ps.VT.P99Ms }),
		"host.ops_per_s":     best,
		"host.allocs_per_op": over(all, func(ps *pass) float64 { return float64(ps.Host.Mallocs) / float64(ps.VT.Ops) }),
		"host.live_heap_MB":  over(all, func(ps *pass) float64 { return ps.Host.LiveHeapMB }),
		"setup_s":            over(all, func(ps *pass) float64 { return ps.Host.SetupS }),
	}
}

// layerInputs is everything the per-layer block is computed from.
type layerInputs struct {
	Traced     *pass
	Budget     *budget
	TimedWallS float64 // measured wall of the untraced pass
	Bare       *pass   // nil when the workload has no bare replay
	Probes     map[string]float64
}

// perLayerValues computes every per-layer metric. Time lines are mean
// virtual self time per measured operation; *_per_op and ratios are
// exact counts over the measured phases.
func perLayerValues(in layerInputs) map[string]float64 {
	ps, b := in.Traced, in.Budget
	vt, c := ps.VT, ps.Layers
	ops := float64(vt.Ops)
	out := map[string]float64{
		"vt.read_ms_mean":  vt.ReadMeanMs,
		"vt.write_ms_mean": vt.WriteMeanMs,
		"vt.data_MBps":     vt.DataMBps,
	}
	for _, k := range opKinds {
		out["vfs."+k+"_ms_mean"] = vt.KindMeanMs[k]
	}
	for _, line := range budgetLines {
		out[line] = meanMs(b.Self[line], vt.Ops)
	}
	out["budget.residual_ms"] = meanMs(b.Residual, vt.Ops)

	out["core.cache_hit_ratio"] = ratio(c["cache.attr-hits"], c["cache.attr-hits"]+c["cache.attr-misses"])
	out["core.dentry_hits_per_op"] = c["cache.dentry-hits"] / ops
	out["core.lease_installs_per_op"] = c["cache.lease-installs"] / ops
	out["core.lease_revoked_per_op"] = c["cache.lease-revoked"] / ops
	out["core.mds_requests_per_op"] = c["mds.requests"] / ops
	var maxReq, sumReq float64
	shards := ps.sys.d.Service.Shards()
	for i := range shards {
		r := c[fmt.Sprintf("shard%d.requests", i)]
		sumReq += r
		if r > maxReq {
			maxReq = r
		}
	}
	out["core.shard_skew"] = ratio(maxReq, sumReq/float64(len(shards)))

	out["rpc.calls_per_op"] = c["rpc.client.calls"] / ops
	out["rpc.roundtrips_per_call"] = ratio(c["rpc.client.roundtrips"], c["rpc.client.calls"])
	out["rpc.batched_share"] = ratio(c["rpc.client.batched-reqs"], c["rpc.client.calls"])
	out["rpc.peer_calls_per_op"] = c["rpc.peer.calls"] / ops
	out["rpc.lease_recalls_per_op"] = c["rpc.client.lease-recalls"] / ops
	var depth int64
	if m := ps.sys.d.Metrics(); m != nil {
		for i := 0; i < m.Shards(); i++ {
			if h := m.QueueGauge(i).High(); h > depth {
				depth = h
			}
		}
	}
	out["rpc.queue_depth_high"] = float64(depth)

	out["lock.acquires_per_op"] = c["mds.lock-acquires"] / ops
	out["lock.conflict_ratio"] = ratio(c["mds.lock-conflicts"], c["mds.lock-acquires"])
	out["lock.shared_share"] = ratio(c["mds.lock-shared"], c["mds.lock-acquires"])
	out["lock.token_acquires_per_op"] = c["pfs.token_acquires"] / ops
	out["lock.token_revocations_per_op"] = c["pfs.token_revocations"] / ops

	out["mdb.commits_per_op"] = c["mdb.commits"] / ops
	out["mdb.wal_records_per_op"] = c["mdb.records"] / ops
	out["mdb.log_flushes_per_op"] = c["mdb.flushes"] / ops
	var busiest time.Duration
	for _, d := range b.FlushBusy {
		if d > busiest {
			busiest = d
		}
	}
	out["mdb.flush_busy_share"] = ratio(float64(busiest), float64(vt.Final-ps.phases[0].Start))
	out["mdb.recover_ms"] = ps.RecoverMs
	out["disk.mds_syncs_per_op"] = c["disk.mds.syncs"] / ops
	out["disk.mds_writes_per_op"] = c["disk.mds.writes"] / ops

	out["pfs.under_calls_per_op"] = c["pfs.under_calls"] / ops
	out["pfs.meta_rpcs_per_op"] = c["pfs.meta_rpcs"] / ops
	out["pfs.disk_reads_per_op"] = c["pfs.disk_reads"] / ops
	out["pfs.commits_per_op"] = c["pfs.commits"] / ops
	out["pfs.bare_op_ms_mean"], out["pfs.cofs_speedup"] = 0, 0
	if in.Bare != nil {
		// The bare replay drops readdir (README "Exclusions"); compare
		// against the COFS mean over the same operations.
		bare := in.Bare.VT
		var sum float64
		var n int
		for kind, k := range vt.KindOps {
			if bare.KindOps[kind] > 0 {
				sum += vt.KindMeanMs[kind] * float64(k)
				n += k
			}
		}
		out["pfs.bare_op_ms_mean"] = bare.MeanMs
		out["pfs.cofs_speedup"] = ratio(bare.MeanMs, ratio(sum, float64(n)))
	}

	out["blockstore.bytes_written_per_op"] = c["blockstore.written"] / ops
	out["blockstore.bytes_read_per_op"] = c["blockstore.read"] / ops
	out["netsim.msgs_per_op"] = c["netsim.msgs"] / ops
	out["netsim.bytes_per_op"] = c["netsim.bytes"] / ops

	for k, v := range in.Probes {
		out[k] = v
	}
	for _, bkt := range cpuBuckets {
		out["host.cpu_share."+bkt] = ps.CPUShares[bkt]
	}
	out["obs.trace_overhead_ratio"] = ratio(ps.Host.WallS, in.TimedWallS)
	out["obs.spans_per_op"] = c["obs.spans"] / ops
	return out
}
