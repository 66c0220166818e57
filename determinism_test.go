package cofs_test

// The same-seed determinism battery: the repo's contract is that every
// virtual-time figure is a pure function of the seed and configuration
// — bit-identical across runs, Go versions and host load — because the
// kernel wakes exactly one runnable process at a time and orders events
// by (instant, issue sequence). The kernel's shortcuts (internal/sim:
// typed event heap, coroutine switches on reused carriers, the own-wake
// fast path) must not perturb that ordering; internal/sim's golden
// order test pins the kernel's event sequence directly, and this
// battery pins the end-to-end consequence: two identical mdtest storms
// over a sharded metadata plane — including one that reshards the
// plane mid-run, the most schedule-sensitive path the repo has —
// produce identical latencies, identical final virtual clocks and
// identical per-layer counters. So does a directory traversal storm,
// whose listings read an index bucket in whatever order the host's map
// yields it and owe their order to the sort by name alone.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/experiments"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/trace"
)

// stormFingerprint runs one mdtest storm — 32 ranks (8 nodes x 4
// procs), private 4-leaf trees, 64 files per rank, coherent lease
// cache on — and renders everything observable about it into a string:
// the final virtual clock, per-phase op counts and mean latencies
// (hex-formatted, so float equality is bitwise), and every deployment
// counter. With reshard set the plane starts at 2 shards and reshards
// to 4 while the stat phase runs. With standby set the plane ships its
// WAL to per-shard standbys, which grow in lockstep with a reshard —
// each replica's shipping rounds and records land in the fingerprint.
func stormFingerprint(t *testing.T, seed int64, reshard, standby bool) string {
	t.Helper()
	cfg := params.Default()
	cfg.COFS.MetadataShards = 4
	if reshard {
		cfg.COFS.MetadataShards = 2
	}
	cfg.COFS.AttrLease = 30 * time.Second
	tb := cluster.New(seed, 8, cfg)
	d := core.Deploy(tb, nil)
	var sbp *core.Standby
	if standby {
		sbp = core.DeployStandby(tb, d, 5*time.Millisecond)
		tb.Run()
	}
	tgt := trace.Target{Env: tb.Env, Mounts: d.Mounts}
	phases := trace.MDTest(trace.MDTestConfig{
		Nodes: 8, ProcsPerNode: 4, Depth: 1, Branch: 4, FilesPerRank: 64,
		Shared: false, StatShift: true,
	})
	var hook func(p *sim.Proc, phase string)
	var reshardErr error
	if reshard {
		hook = func(p *sim.Proc, phase string) {
			if phase == "file-stat" && reshardErr == nil {
				reshardErr = d.Service.Reshard(p, 4)
			}
		}
	}
	res, err := trace.Run(tgt, phases, hook)
	if err != nil {
		t.Fatal(err)
	}
	if reshardErr != nil {
		t.Fatalf("mid-storm reshard: %v", reshardErr)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "virtual-now %d\n", tb.Env.Now())
	for _, ph := range trace.MDTestPhases {
		fmt.Fprintf(&sb, "%s ops %d mean %x vms\n", ph, res.PhaseOps[ph], res.MeanMs(ph))
	}
	writeCounters(&sb, d.Counters())
	if sbp != nil {
		for i, r := range sbp.Replicas {
			fmt.Fprintf(&sb, "standby-%d ships %d records %d\n", i, r.Ships, r.Records)
		}
	}
	return sb.String()
}

// writeCounters renders every counter of c, one per line.
func writeCounters(sb *strings.Builder, c *stats.Counters) {
	for _, name := range c.Names() {
		fmt.Fprintf(sb, "%s %d\n", name, c.Get(name))
	}
}

// traversalFingerprint runs the `ls -l` storm (experiments.
// ClientCacheStorm: 8 ranks listing and stat-ing a shared 256-file
// directory between utime sweeps) on 4 shards with the lease cache on —
// names-only listings, stataheads, plus listings and the recalls they
// book all land inside it — and renders the stat distribution and every
// counter, the whole-pass virtual time among them.
func traversalFingerprint(seed int64) string {
	cfg := params.Default()
	cfg.COFS.MetadataShards = 4
	cfg.COFS.AttrLease = 30 * time.Second
	sum, c := experiments.ClientCacheStorm(seed, cfg)
	var sb strings.Builder
	fmt.Fprintf(&sb, "stats %d mean %x vms p50 %d p99 %d\n", sum.N(), sum.MeanMs(), sum.Percentile(50), sum.Percentile(99))
	writeCounters(&sb, c)
	return sb.String()
}

// TestSameSeedDeterminism runs each storm twice with the same seed and
// requires byte-identical fingerprints. A diff here means the kernel's
// event ordering (or something scheduled on it) became sensitive to
// host-side state — exactly the regression the allocation work must
// never introduce.
func TestSameSeedDeterminism(t *testing.T) {
	storm := func(reshard, standby bool) func(*testing.T) string {
		return func(t *testing.T) string { return stormFingerprint(t, 42, reshard, standby) }
	}
	cases := []struct {
		name string
		run  func(*testing.T) string
	}{
		{"storm-4shards", storm(false, false)},
		{"storm-2to4-midreshard", storm(true, false)},
		{"storm-standby-reads-midreshard", storm(true, true)},
		{"traversal-4shards", func(*testing.T) string { return traversalFingerprint(42) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			first := tc.run(t)
			second := tc.run(t)
			if first == second {
				return
			}
			a := strings.Split(first, "\n")
			b := strings.Split(second, "\n")
			for i := 0; i < len(a) || i < len(b); i++ {
				var la, lb string
				if i < len(a) {
					la = a[i]
				}
				if i < len(b) {
					lb = b[i]
				}
				if la != lb {
					t.Errorf("fingerprint line %d differs:\n  run 1: %s\n  run 2: %s", i+1, la, lb)
				}
			}
		})
	}
}
