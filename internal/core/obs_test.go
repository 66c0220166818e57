package core_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/obs"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// These tests pin the observability plane (internal/obs,
// docs/observability.md) at the deployment level: the exported trace is
// schema-valid and deterministic, the metrics registry detects injected
// shard skew, and — the contract everything else leans on — enabling
// neither knob leaves the simulation bit-identical.

// obsWorkload drives a mixed workload over a deployment: per-node
// create/stat/readdir plus renames and links that cross shards on a
// multi-shard plane, so the trace covers the client ops, the transport,
// the WAL and the two-phase paths.
func obsWorkload(tb *cluster.Testbed, d *core.Deployment) {
	ctx := cluster.Ctx(0, 1)
	tb.Env.Spawn("obs-workload", func(p *sim.Proc) {
		m := d.Mounts[0]
		if err := m.MkdirAll(p, ctx, "/w/a", 0777); err != nil {
			panic(err)
		}
		if err := m.MkdirAll(p, ctx, "/w/b", 0777); err != nil {
			panic(err)
		}
		for i := 0; i < 16; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/w/a/f%02d", i), 0644)
			if err != nil {
				panic(err)
			}
			f.Close(p)
			if _, err := m.Stat(p, ctx, fmt.Sprintf("/w/a/f%02d", i)); err != nil {
				panic(err)
			}
		}
		if err := m.Rename(p, ctx, "/w/a/f00", "/w/b/g00"); err != nil {
			panic(err)
		}
		if err := m.Link(p, ctx, "/w/a/f01", "/w/b/h01"); err != nil {
			panic(err)
		}
		if err := m.Unlink(p, ctx, "/w/b/g00"); err != nil {
			panic(err)
		}
		if _, err := m.Readdir(p, ctx, "/w/a"); err != nil {
			panic(err)
		}
	})
	tb.Run()
}

func obsDeploy(seed int64, shards int, trace, metrics bool) (*cluster.Testbed, *core.Deployment) {
	cfg := params.Default()
	cfg.COFS.MetadataShards = shards
	cfg.COFS.Trace = trace
	cfg.COFS.Metrics = metrics
	tb := cluster.New(seed, 2, cfg)
	d := core.Deploy(tb, nil)
	tb.Run()
	obsWorkload(tb, d)
	return tb, d
}

type chromeEvent struct {
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Name string  `json:"name"`
}

// TestTraceGolden is the golden trace test: a two-shard run with
// tracing on exports Chrome trace-event JSON that parses, balances
// every B with an E per track, never steps a track's clock backwards,
// and covers every layer's span vocabulary.
func TestTraceGolden(t *testing.T) {
	_, d := obsDeploy(11, 2, true, false)
	tr := d.Tracer()
	if tr == nil {
		t.Fatal("Trace knob set but deployment has no tracer")
	}
	if tr.Spans == 0 {
		t.Fatal("workload opened no spans")
	}
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	type key struct{ pid, tid int }
	depth := map[key]int{}
	last := map[key]float64{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		k := key{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "M":
			continue
		case "B":
			depth[k]++
			names[ev.Name] = true
		case "E":
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("track %v closes a span it never opened", k)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		if ev.Ts < last[k] {
			t.Fatalf("track %v time goes backwards: %v after %v (name %s)", k, ev.Ts, last[k], ev.Name)
		}
		last[k] = ev.Ts
	}
	for k, n := range depth {
		if n != 0 {
			t.Fatalf("track %v ends with %d unbalanced spans", k, n)
		}
	}
	// Every instrumented layer must appear: client ops, the four
	// transport phases, the WAL under the shard service, and the
	// two-phase protocol the cross-shard rename/link/remove walk.
	// (op.lookup is legitimately absent: the dentry cache resolves
	// these paths without a lookup RPC.)
	for _, want := range []string{
		"op.create", "op.getattr", "op.readdir", "op.rename", "op.link", "op.remove",
		"rpc.send", "rpc.queue", "rpc.serve", "rpc.recv",
		"wal.commit", "wal.flush",
		"2pc.validate", "2pc.prepare", "2pc.commit",
	} {
		if !names[want] {
			t.Fatalf("trace is missing %q spans; got %v", want, names)
		}
	}
}

// TestTraceFingerprintStable pins trace determinism end to end: two
// runs of the same seed and configuration must export byte-identical
// traces, and a different seed must not.
func TestTraceFingerprintStable(t *testing.T) {
	_, d1 := obsDeploy(11, 2, true, false)
	_, d2 := obsDeploy(11, 2, true, false)
	if d1.Tracer().Fingerprint() != d2.Tracer().Fingerprint() {
		t.Fatal("same seed, different trace fingerprints")
	}
	_, d3 := obsDeploy(12, 2, true, false)
	if d1.Tracer().Fingerprint() == d3.Tracer().Fingerprint() {
		t.Fatal("different seeds collide on trace fingerprint")
	}
}

// TestObsOffCostIdentity is the zero-cost-off contract: a deployment
// with tracing and metrics enabled must land on exactly the same
// virtual clock and message count as one with both off — observation
// must never perturb the simulation it observes.
func TestObsOffCostIdentity(t *testing.T) {
	for _, shards := range []int{1, 2} {
		tbOff, _ := obsDeploy(5, shards, false, false)
		tbOn, d := obsDeploy(5, shards, true, true)
		if tbOff.Env.Now() != tbOn.Env.Now() || tbOff.Net.Messages != tbOn.Net.Messages {
			t.Fatalf("%d shards: obs-on run diverged: off (%v, %d msgs) vs on (%v, %d msgs)",
				shards, tbOff.Env.Now(), tbOff.Net.Messages, tbOn.Env.Now(), tbOn.Net.Messages)
		}
		if d.Tracer() == nil || d.Metrics() == nil {
			t.Fatal("obs-on deployment lost its tracer or metrics")
		}
	}
}

// TestMetricsSkewDetection injects a hot shard — every rank hammers
// stats at one file while the rest of the plane idles — and requires
// Deployment.Metrics() to expose it: the hot shard's sliding-window
// request rate dominates, Skew names it, and its per-shard latency
// histogram carries the samples.
func TestMetricsSkewDetection(t *testing.T) {
	cfg := params.Default()
	cfg.COFS.MetadataShards = 4
	cfg.COFS.Metrics = true
	tb := cluster.New(21, 2, cfg)
	d := core.Deploy(tb, nil)
	tb.Run()
	ctx := cluster.Ctx(0, 1)
	tb.Env.Spawn("hot", func(p *sim.Proc) {
		m := d.Mounts[0]
		if err := m.MkdirAll(p, ctx, "/hot", 0777); err != nil {
			panic(err)
		}
		f, err := m.Create(p, ctx, "/hot/target", 0644)
		if err != nil {
			panic(err)
		}
		f.Close(p)
		for i := 0; i < 200; i++ {
			if _, err := m.Stat(p, ctx, "/hot/target"); err != nil {
				panic(err)
			}
		}
	})
	tb.Run()
	m := d.Metrics()
	if m == nil {
		t.Fatal("Metrics knob set but deployment has no registry")
	}
	if m.Shards() < 4 {
		t.Fatalf("registry grew to %d shards, want 4", m.Shards())
	}
	now := tb.Env.Now()
	rates := m.RequestRates(now)
	hot, ratio := obs.Skew(rates)
	if hot < 0 || ratio < 4 {
		t.Fatalf("injected skew not detected: hot=%d ratio=%v rates=%v", hot, ratio, rates)
	}
	if rates[hot] == 0 {
		t.Fatalf("hot shard %d has no window traffic: %v", hot, rates)
	}
	// The hot shard's getattr histogram carries the storm: count and a
	// full percentile ladder.
	h := m.Hist(obs.HKey{Op: "op.getattr", Shard: hot})
	if h.Count() < 200 {
		t.Fatalf("hot shard histogram has %d samples, want >= 200", h.Count())
	}
	p50, p95, p99 := h.Quantile(50), h.Quantile(95), h.Quantile(99)
	if p50 <= 0 || p95 < p50 || p99 < p95 {
		t.Fatalf("percentile ladder broken: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
}

// TestQueueGaugeSamplesWorkerQueue: a shard's queue gauge reads the
// requests waiting for one of its workers as each request arrives. A
// one-shard stat storm from more concurrent callers than the shard has
// workers finds requests waiting; a lone caller never does.
func TestQueueGaugeSamplesWorkerQueue(t *testing.T) {
	high := func(callers int) int64 {
		cfg := params.Default()
		cfg.COFS.Metrics = true
		tb := cluster.New(41, 4, cfg)
		d := core.Deploy(tb, nil)
		tb.Env.Spawn("setup", func(p *sim.Proc) {
			f, err := d.Mounts[0].Create(p, cluster.Ctx(0, 1), "/f", 0644)
			if err != nil {
				panic(err)
			}
			f.Close(p)
		})
		tb.Run()
		for i := 0; i < callers; i++ {
			node := i % len(d.Mounts)
			tb.Env.Spawn("stat", func(p *sim.Proc) {
				for j := 0; j < 20; j++ {
					if _, err := d.Mounts[node].Stat(p, cluster.Ctx(node, i+1), "/f"); err != nil {
						panic(err)
					}
				}
			})
		}
		tb.Run()
		return d.Metrics().QueueGauge(0).High()
	}
	storm := 4 * params.Default().COFS.ServiceWorkers
	if h := high(storm); h == 0 {
		t.Errorf("%d concurrent callers: queue gauge high 0, want > 0", storm)
	}
	if h := high(1); h != 0 {
		t.Errorf("lone caller: queue gauge high %d, want 0", h)
	}
}

// TestCountersCumulativeAcrossPromote pins the failover counter
// contract (stats.Counters.Merge consumed by Deployment.Counters):
// service-plane totals must not reset when a standby is promoted.
func TestCountersCumulativeAcrossPromote(t *testing.T) {
	tb := cluster.New(31, 2, params.Default())
	d := core.Deploy(tb, nil)
	sb := core.DeployStandby(tb, d, time.Millisecond)
	tb.Run()
	ctx := cluster.Ctx(0, 1)
	tb.Env.Spawn("pre", func(p *sim.Proc) {
		m := d.Mounts[0]
		if err := m.MkdirAll(p, ctx, "/c", 0777); err != nil {
			panic(err)
		}
		for i := 0; i < 20; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/c/f%02d", i), 0644)
			if err != nil {
				panic(err)
			}
			f.Close(p)
		}
	})
	tb.Run()
	pre := d.Counters().Get("mds.requests")
	if pre == 0 {
		t.Fatal("no requests before failover")
	}
	d.Service.Crash()
	sb.Promote(d)
	tb.Env.Spawn("post", func(p *sim.Proc) {
		m := d.Mounts[1]
		for i := 0; i < 20; i++ {
			if _, err := m.Stat(p, ctx, fmt.Sprintf("/c/f%02d", i)); err != nil {
				panic(err)
			}
		}
	})
	tb.Run()
	post := d.Counters().Get("mds.requests")
	if post <= pre {
		t.Fatalf("mds.requests reset at failover: %d before, %d after (+20 stats served)", pre, post)
	}
}
