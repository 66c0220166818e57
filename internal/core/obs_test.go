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
	"cofs/internal/trace"
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
func obsWorkload(t *testing.T, tb *cluster.Testbed, d *core.Deployment) {
	t.Helper()
	ops := []trace.Op{core.Mkdir(0, "/w/a", 0777), core.Mkdir(0, "/w/b", 0777)}
	for i := 0; i < 16; i++ {
		ops = append(ops, core.Create(0, fmt.Sprintf("/w/a/f%02d", i), 0644), core.Stat(0, fmt.Sprintf("/w/a/f%02d", i)))
	}
	core.Play(t, tb, d, append(ops, core.Op(0, trace.Rename, "/w/a/f00", "/w/b/g00"), core.Op(0, trace.Link, "/w/a/f01", "/w/b/h01"),
		core.Op(0, trace.Unlink, "/w/b/g00", ""), core.Op(0, trace.Readdir, "/w/a", ""))...)
}

func obsDeploy(t *testing.T, seed int64, shards int, traced, metrics bool) (*cluster.Testbed, *core.Deployment) {
	tb, d := core.Rig(t, seed, 2, core.Shards(shards), func(c *params.Config) { c.COFS.Trace, c.COFS.Metrics = traced, metrics })
	obsWorkload(t, tb, d)
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
	_, d := obsDeploy(t, 11, 2, true, false)
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
	_, d1 := obsDeploy(t, 11, 2, true, false)
	_, d2 := obsDeploy(t, 11, 2, true, false)
	if d1.Tracer().Fingerprint() != d2.Tracer().Fingerprint() {
		t.Fatal("same seed, different trace fingerprints")
	}
	_, d3 := obsDeploy(t, 12, 2, true, false)
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
		tbOff, _ := obsDeploy(t, 5, shards, false, false)
		tbOn, d := obsDeploy(t, 5, shards, true, true)
		if tbOff.Env.Now() != tbOn.Env.Now() || tbOff.Net.Messages != tbOn.Net.Messages {
			t.Fatalf("%d shards: obs-on run diverged: off (%v, %d msgs) vs on (%v, %d msgs)",
				shards, tbOff.Env.Now(), tbOff.Net.Messages, tbOn.Env.Now(), tbOn.Net.Messages)
		}
		if d.Tracer() == nil || d.Metrics() == nil {
			t.Fatal("obs-on deployment lost its tracer or metrics")
		}
	}
	t.Run("grow-and-promote", func(t *testing.T) {
		tbOff, _, _, _ := growPromoteRun(t, false, false)
		tbOn, d, promoteAt, atPromote := growPromoteRun(t, true, true)
		if tbOff.Env.Now() != tbOn.Env.Now() || tbOff.Net.Messages != tbOn.Net.Messages {
			t.Fatalf("obs-on run diverged: off (%v, %d msgs) vs on (%v, %d msgs)",
				tbOff.Env.Now(), tbOff.Net.Messages, tbOn.Env.Now(), tbOn.Net.Messages)
		}
		// The grown shards' queue gauges exist and the promoted plane's
		// channels to them sample them: wired at dial time, not re-wired.
		m := d.Metrics()
		if m.Shards() != 4 {
			t.Fatalf("registry has %d shards after the grow, want 4", m.Shards())
		}
		for i := 2; i < 4; i++ {
			if got := m.QueueGauge(i).Samples(); got <= atPromote[i] {
				t.Errorf("shard %d queue gauge: %d samples at promotion, %d after: the promoted plane's channels do not sample it", i, atPromote[i], got)
			}
		}
		// The trace balances, and the promoted plane traces its client
		// ops and their transport.
		var b strings.Builder
		if err := d.Tracer().WriteChrome(&b); err != nil {
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
		late := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			k := key{ev.Pid, ev.Tid}
			switch ev.Ph {
			case "B":
				depth[k]++
				if ev.Ts > float64(promoteAt)/1e3 {
					late[strings.SplitN(ev.Name, ".", 2)[0]] = true
				}
			case "E":
				if depth[k]--; depth[k] < 0 {
					t.Fatalf("track %v closes a span it never opened", k)
				}
			}
		}
		for k, n := range depth {
			if n != 0 {
				t.Fatalf("track %v ends with %d unbalanced spans", k, n)
			}
		}
		if !late["op"] || !late["rpc"] {
			t.Fatalf("no op.* or rpc.* span after the promotion at %v: got span families %v", promoteAt, late)
		}
	})
}

// growPromoteRun is the wiring-from-birth scenario: a 2-shard plane with
// a standby grows to 4 shards under traffic, the primaries die, the
// standby is promoted, and it serves traffic spread over all 4 shards.
// It returns the promotion instant and each shard's queue-gauge samples
// at that instant (nil with metrics off).
func growPromoteRun(t *testing.T, trace, metrics bool) (*cluster.Testbed, *core.Deployment, time.Duration, []int64) {
	t.Helper()
	tb, d := core.Rig(t, 17, 2, core.Shards(2), func(c *params.Config) { c.COFS.Trace = trace }, func(c *params.Config) { c.COFS.Metrics = metrics })
	sb := core.DeployStandby(tb, d, time.Millisecond)
	tb.Run()
	obsWorkload(t, tb, d)
	tb.Env.Spawn("grow", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, 4); err != nil {
			t.Errorf("reshard: %v", err)
		}
	})
	tb.Env.Spawn("traffic", func(p *sim.Proc) {
		ctx := cluster.Ctx(1, 1)
		for i := 1; i < 16; i++ {
			if _, err := d.Mounts[1].Stat(p, ctx, fmt.Sprintf("/w/a/f%02d", i)); err != nil {
				t.Errorf("stat during grow: %v", err)
				return
			}
		}
	})
	tb.Run()
	d.Service.Crash()
	sb.Promote(d)
	promoteAt := tb.Env.Now()
	var atPromote []int64
	if m := d.Metrics(); m != nil {
		for i := 0; i < m.Shards(); i++ {
			atPromote = append(atPromote, m.QueueGauge(i).Samples())
		}
	}
	tb.Env.Spawn("post", func(p *sim.Proc) {
		// Start strictly after the promotion instant, so every span this
		// traffic opens is stamped later than anything the dead plane did.
		p.Sleep(time.Millisecond)
		m, ctx := d.Mounts[0], cluster.Ctx(0, 1)
		// New directories hash over all four shards; each file commits
		// and is read back on its directory's shard.
		for i := 0; i < 16; i++ {
			dir := fmt.Sprintf("/p%02d", i)
			if err := m.Mkdir(p, ctx, dir, 0777); err != nil {
				t.Errorf("mkdir after promote: %v", err)
				return
			}
			f, err := m.Create(p, ctx, dir+"/f", 0644)
			if err != nil {
				t.Errorf("create after promote: %v", err)
				return
			}
			f.Close(p)
			if _, err := m.Stat(p, ctx, dir+"/f"); err != nil {
				t.Errorf("stat after promote: %v", err)
				return
			}
		}
	})
	tb.Run()
	return tb, d, promoteAt, atPromote
}

// TestMetricsSkewDetection injects a hot shard — every rank hammers
// stats at one file while the rest of the plane idles — and requires
// Deployment.Metrics() to expose it: the hot shard's sliding-window
// request rate dominates, Skew names it, and its per-shard latency
// histogram carries the samples.
func TestMetricsSkewDetection(t *testing.T) {
	tb, d := core.Rig(t, 21, 2, core.Shards(4), func(c *params.Config) { c.COFS.Metrics = true })
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
		tb, d := core.Rig(t, 41, 4, func(c *params.Config) { c.COFS.Metrics = true })
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
// contract: Deployment.Counters never moves backwards — not across a
// shrink's retirement, not across a promotion — and the promotion itself
// moves no transport, reshard or lock counter: the demoted
// plane keeps what it counted, and the promoted one has counted none of
// those yet. A retirement is counted once, by the plane that settled it,
// however many planes retired shards in lockstep.
func TestCountersCumulativeAcrossPromote(t *testing.T) {
	cases := []struct {
		name     string
		seed     int64
		shards   int
		shrinkTo int // 0: no reshard
	}{
		{"1shard", 31, 1, 0},
		{"shrink-4to2-standby-reads", 9100, 4, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb, d := core.Rig(t, tc.seed, 2, core.Shards(tc.shards))
			sb := core.DeployStandby(tb, d, time.Millisecond)
			tb.Run()
			var snaps []map[string]int64
			snap := func() map[string]int64 {
				cs := d.Counters()
				s := make(map[string]int64)
				for _, name := range cs.Names() {
					s[name] = cs.Get(name)
				}
				snaps = append(snaps, s)
				return s
			}
			// Eight directories hash over every shard, so the shards a
			// shrink retires have served requests of their own.
			path := func(i int) string { return fmt.Sprintf("/c%d/f%02d", i%8, i) }
			statAll := func(p *sim.Proc) {
				for i := 0; i < 24; i++ {
					if _, err := d.Mounts[1].Stat(p, cluster.Ctx(1, 1), path(i)); err != nil {
						t.Errorf("stat %s: %v", path(i), err)
						return
					}
				}
			}
			core.Drained(tb, "pre", func(p *sim.Proc) {
				m, ctx := d.Mounts[0], cluster.Ctx(0, 1)
				for i := 0; i < 24; i++ {
					if i < 8 {
						if err := m.Mkdir(p, ctx, fmt.Sprintf("/c%d", i), 0777); err != nil {
							t.Error(err)
							return
						}
					}
					f, err := m.Create(p, ctx, path(i), 0644)
					if err != nil {
						t.Error(err)
						return
					}
					f.Close(p)
				}
			})
			core.Drained(tb, "stat", statAll)
			snap()
			if tc.shrinkTo > 0 {
				// No traffic rides the migration, so nothing the retired
				// shards counted can hide behind new requests.
				core.Drained(tb, "shrink", func(p *sim.Proc) {
					if err := d.Service.Reshard(p, tc.shrinkTo); err != nil {
						t.Errorf("reshard: %v", err)
					}
				})
				snap()
				core.Drained(tb, "stat-settled", statAll)
			}
			before := snap()
			if before["mds.requests"] == 0 {
				t.Fatal("no requests before failover")
			}
			var shipped int64
			for _, r := range sb.Replicas {
				shipped += r.Records
			}
			if shipped == 0 {
				t.Fatal("the standby shipped nothing before the failover: test is vacuous")
			}
			d.Service.Crash()
			sb.Promote(d)
			promoted := snap()
			for name, v := range before {
				for _, prefix := range []string{"rpc.", "mds.reshard-", "mds.lock-"} {
					if strings.HasPrefix(name, prefix) && promoted[name] != v {
						t.Errorf("Promote alone moved %s from %d to %d", name, v, promoted[name])
					}
				}
			}
			core.Drained(tb, "post", statAll)
			after := snap()
			for i := 1; i < len(snaps); i++ {
				for name, v := range snaps[i-1] {
					if got := snaps[i][name]; got < v {
						t.Errorf("%s moved backwards between snapshots %d and %d: %d -> %d", name, i-1, i, v, got)
					}
				}
			}
			if after["mds.requests"] <= before["mds.requests"] {
				t.Errorf("mds.requests reset at failover: %d before, %d after (+24 stats served)",
					before["mds.requests"], after["mds.requests"])
			}
			if tc.shrinkTo > 0 {
				want := int64(tc.shards - tc.shrinkTo)
				for _, s := range []struct {
					when string
					c    map[string]int64
				}{{"before", before}, {"after", after}} {
					if got := s.c["mds.reshard-retired"]; got != want {
						t.Errorf("mds.reshard-retired = %d %s the promotion, want %d", got, s.when, want)
					}
				}
			}
		})
	}
}
