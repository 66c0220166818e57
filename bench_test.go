// Benchmarks that emit the gated BENCH_*.json records cmd/benchgate
// holds to bench/baseline.json: every paper figure and ablation
// (BenchmarkPaperFigures, one figure/<name> record per
// internal/experiments driver), plus the scaling, cache, resharding and
// data-path runs that have no paper figure. Each run is a deterministic
// simulation, so `go test -run xxx -bench . -benchtime 1x .` regenerates
// the records:
//
//	BenchmarkPaperFigures/fig4   ... figure/fig4: "cofs 8n (ms)@512" = 2.640, ...
package cofs_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/experiments"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/trace"
)

// BenchmarkPaperFigures computes every figure of the evaluation
// (experiments.All at seed 1) and records each as figure/<name>, every
// point of the figure an extra metric: cmd/benchgate holds each point
// to its baseline exactly and names the one that moved.
func BenchmarkPaperFigures(b *testing.B) {
	for _, d := range experiments.All {
		b.Run(d.Name, func(b *testing.B) {
			var f experiments.Figure
			var mt bench.Meter
			for i := 0; i < b.N; i++ {
				mt.Start()
				f = d.Run(1)
				mt.Stop()
			}
			rec := bench.Record{Name: "figure/" + d.Name, Extra: f.Points()}
			mt.Fill(&rec, 0)
			if err := bench.WriteRecord(rec); err != nil {
				b.Logf("bench record: %v", err)
			}
		})
	}
}

// BenchmarkSmallFileIO is the gated record of the striped data path
// (docs/datapath.md): 16 streams (8 nodes x 2 procs) each write 32 files
// of 256 KiB, read the files the same-numbered stream of the next node
// wrote (so no read is served from the reader's own page pool) and unlink
// their own, with a barrier between the phases — on bare GPFS and on COFS
// in the grown profile (4 shards, 30 s leases). The records
// carry the per-kind means and the bytes the block store moved per file:
// a read that fetches more than the file has shows there first.
func BenchmarkSmallFileIO(b *testing.B) {
	const nodes, procs, files, fileBytes = 8, 2, 32, 256 << 10
	name := func(node, pid, i int) string { return fmt.Sprintf("/small/n%d.p%d/out-%02d", node, pid, i) }
	phases := make([]*trace.Trace, 3)
	for i := range phases {
		phases[i] = &trace.Trace{}
	}
	for node := 0; node < nodes; node++ {
		for pid := 0; pid < procs; pid++ {
			dir := trace.Op{Node: node, PID: pid, Kind: trace.Mkdir, Path: fmt.Sprintf("/small/n%d.p%d", node, pid), Mode: 0755}
			phases[0].Ops = append(phases[0].Ops, dir)
			for i := 0; i < files; i++ {
				op := trace.Op{Node: node, PID: pid, Mode: 0644, Bytes: fileBytes}
				op.Kind, op.Path = trace.WriteFile, name(node, pid, i)
				phases[0].Ops = append(phases[0].Ops, op)
				op.Kind, op.Path = trace.ReadFile, name((node+1)%nodes, pid, i)
				phases[1].Ops = append(phases[1].Ops, op)
				op.Kind, op.Path = trace.Unlink, name(node, pid, i)
				phases[2].Ops = append(phases[2].Ops, op)
			}
		}
	}
	for _, stack := range []string{"gpfs", "cofs-4shards"} {
		b.Run(stack, func(b *testing.B) {
			var mt bench.Meter
			var tb *cluster.Testbed
			var d *core.Deployment
			perKind := map[trace.Kind]*stats.Summary{}
			for i := 0; i < b.N; i++ {
				cfg := params.Default()
				cfg.COFS.MetadataShards = 4
				cfg.COFS.AttrLease = 30 * time.Second
				mt.Start()
				tb = cluster.New(int64(i+1), nodes, cfg)
				t := trace.Target{Env: tb.Env, Mounts: tb.Mounts}
				if stack != "gpfs" {
					d = core.Deploy(tb, nil)
					t.Mounts = d.Mounts
				}
				for _, tr := range phases {
					res, err := trace.Replay(t, tr, trace.ReplayOptions{})
					if err != nil || res.Errors > 0 {
						b.Fatalf("replay: %v (errors %d, first %v)", err, res.Errors, res.FirstErr)
					}
					for k, sum := range res.PerKind {
						perKind[k] = sum
					}
				}
				mt.Stop()
			}
			const fileCount = nodes * procs * files
			const ops = 3 * fileCount // each file is written, read and unlinked once
			w, r, u := perKind[trace.WriteFile].MeanMs(), perKind[trace.ReadFile].MeanMs(), perKind[trace.Unlink].MeanMs()
			b.ReportMetric((w+r+u)/3, "vms/op")
			b.ReportMetric(r, "vms/op-read")
			rec := bench.Record{
				Name: "small-file-io/" + stack, VmsPerOp: (w + r + u) / 3,
				Extra: map[string]float64{
					"vms_per_op_write":       w,
					"vms_per_op_read":        r,
					"vms_per_op_unlink":      u,
					"bytes_read_per_file":    float64(tb.FS.Data.BytesRead) / fileCount,
					"bytes_written_per_file": float64(tb.FS.Data.BytesWritten) / fileCount,
				},
			}
			mt.Fill(&rec, ops)
			if d != nil {
				rec.Shards = 4
				rec.SetSimCounters(d.Counters())
			}
			if err := bench.WriteRecord(rec); err != nil {
				b.Logf("bench record: %v", err)
			}
		})
	}
}

// BenchmarkShardScaling measures the sharded metadata plane on the
// mdtest create-heavy workload: 64 ranks (16 nodes x 4 procs) each
// working a private 4-leaf tree, at 1/2/4/8 metadata shards. The
// configuration provisions the *data* plane out of the way so the
// metadata service is the measured bottleneck: 16 underlying file
// servers, a directory fanout scaled to the rank count (the paper's 64
// was sized for 8 nodes; at 64 ranks it aliases bucket directories
// across nodes and the underlying dir-token ping-pong dominates), and
// no randomization level (cold-bucket first touches would otherwise
// swamp the per-op mean). vms/op must decrease as shards grow.
func BenchmarkShardScaling(b *testing.B) {
	run := func(b *testing.B, seed int64, shards int) (*trace.Result, *core.Deployment) {
		cfg := params.Default()
		cfg.COFS.MetadataShards = shards
		cfg.COFS.DirFanout = 1024
		cfg.COFS.RandomSubdirs = 1
		cfg.PFS.Servers = 16
		tb := cluster.New(seed, 16, cfg)
		d := core.Deploy(tb, nil)
		t := trace.Target{Env: tb.Env, Mounts: d.Mounts}
		res, err := trace.Run(t, trace.MDTest(trace.MDTestConfig{
			Nodes: 16, ProcsPerNode: 4, Depth: 1, Branch: 4, FilesPerRank: 128,
			Shared: false,
		}), nil)
		if err != nil {
			b.Fatal(err)
		}
		return res, d
	}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("mdtest-create-%dshards", shards), func(b *testing.B) {
			var res *trace.Result
			var d *core.Deployment
			var mt bench.Meter
			for i := 0; i < b.N; i++ {
				mt.Start()
				res, d = run(b, int64(i+1), shards)
				mt.Stop()
			}
			b.ReportMetric(res.MeanMs("file-create"), "vms/op")
			b.ReportMetric(res.MeanMs("file-stat"), "vms/op-stat")
			rec := bench.Record{
				Name: fmt.Sprintf("shard-scaling/create-%dshards", shards), Shards: shards,
				VmsPerOp: res.MeanMs("file-create"),
				Extra:    map[string]float64{"vms_per_op_stat": res.MeanMs("file-stat")},
			}
			mt.Fill(&rec, res.TotalOps())
			rec.SetSimCounters(d.Counters())
			if err := bench.WriteRecord(rec); err != nil {
				b.Logf("bench record: %v", err)
			}
		})
	}
}

// BenchmarkMillionFileStorm is the scale gate the allocation-lean
// kernel work exists for: 1024 ranks (64 nodes x 16 procs) each
// creating and statting 1024 files in a private 4-leaf tree —
// 1,048,576 files over 8 metadata shards, the mdtest configuration of
// BenchmarkShardScaling blown up 128x. The removal phases are dropped
// (only the generated run's first four phases, set-up included, are
// passed to trace.Run) to fit the CI bench budget; the create and stat
// storms are where the harness cost lives. The emitted
// BENCH_million-file-storm.json carries wall seconds and allocs/op —
// the figures the bench gate holds the harness to — alongside the
// usual deterministic vms/op.
func BenchmarkMillionFileStorm(b *testing.B) {
	run := func(seed int64) (*trace.Result, *core.Deployment) {
		cfg := params.Default()
		cfg.COFS.MetadataShards = 8
		cfg.COFS.DirFanout = 4096
		cfg.COFS.RandomSubdirs = 1
		cfg.PFS.Servers = 64
		tb := cluster.New(seed, 64, cfg)
		d := core.Deploy(tb, nil)
		t := trace.Target{Env: tb.Env, Mounts: d.Mounts}
		phases := trace.MDTest(trace.MDTestConfig{
			Nodes: 64, ProcsPerNode: 16, Depth: 1, Branch: 4, FilesPerRank: 1024,
			Shared: false,
		})
		res, err := trace.Run(t, phases[:4], nil)
		if err != nil {
			b.Fatal(err)
		}
		return res, d
	}
	var res *trace.Result
	var d *core.Deployment
	var mt bench.Meter
	for i := 0; i < b.N; i++ {
		mt.Start()
		res, d = run(int64(i + 1))
		mt.Stop()
	}
	b.ReportMetric(res.MeanMs("file-create"), "vms/op")
	b.ReportMetric(res.MeanMs("file-stat"), "vms/op-stat")
	rec := bench.Record{
		Name: "million-file-storm", Shards: 8,
		VmsPerOp: res.MeanMs("file-create"),
		Extra: map[string]float64{
			"vms_per_op_stat": res.MeanMs("file-stat"),
			"files":           float64(res.PhaseOps["file-create"]),
		},
	}
	mt.Fill(&rec, res.TotalOps())
	rec.SetSimCounters(d.Counters())
	if err := bench.WriteRecord(rec); err != nil {
		b.Logf("bench record: %v", err)
	}
}

// traversalUs is the whole-pass counter of experiments.ClientCacheStorm:
// vms/op of the records built on that storm times only the stats, so a
// change that moves cost into the listing (or out of it onto the first
// stat) is gated here, exactly.
const traversalUs = "storm.traversal-us"

// BenchmarkMetadataCache documents the section IV-B win: the
// metarates-style stat/utime storm (4 nodes repeatedly `ls -l`-ing a
// shared 256-file directory with cross-node utime sweeps in between),
// with the client cache off versus the coherent lease cache on, at 1
// and 4 metadata shards. The lease rows must show a clear vms/op
// reduction on the stat-heavy workload while recalls keep the cache
// coherent (TestLeaseCacheCrossNodeCoherence pins correctness).
func BenchmarkMetadataCache(b *testing.B) {
	for _, shards := range []int{1, 4} {
		for _, mode := range []string{"nocache", "lease"} {
			shards, mode := shards, mode
			b.Run(fmt.Sprintf("%s-%dshards", mode, shards), func(b *testing.B) {
				var sum *stats.Summary
				var c *stats.Counters
				var mt bench.Meter
				for i := 0; i < b.N; i++ {
					cfg := params.Default()
					cfg.COFS.MetadataShards = shards
					if mode == "lease" {
						cfg.COFS.AttrLease = 30 * time.Second
					}
					mt.Start()
					sum, c = experiments.ClientCacheStorm(int64(i+1), cfg)
					mt.Stop()
				}
				b.ReportMetric(sum.MeanMs(), "vms/op")
				rec := bench.Record{
					Name: fmt.Sprintf("metadata-cache/%s-%dshards", mode, shards), Shards: shards,
					VmsPerOp: sum.MeanMs(),
					P50Ms:    float64(sum.Percentile(50)) / float64(time.Millisecond),
					P99Ms:    float64(sum.Percentile(99)) / float64(time.Millisecond),
				}
				mt.Fill(&rec, sum.N())
				rec.SetSimCounters(c)
				rec.Counters[traversalUs] = c.Get(traversalUs)
				if err := bench.WriteRecord(rec); err != nil {
					b.Logf("bench record: %v", err)
				}
			})
		}
	}
}

// BenchmarkReshardUnderLoad pins the cost of online resharding under
// load (docs/resharding.md): a create/stat/utime storm — 8 ranks (4
// nodes x 2 procs), shared directory, coherent lease cache on — while
// the metadata plane reshards 2→4 as the stat phase starts, so the
// migration of the 2048 pre-created rows races the stat storm reading
// them. The stat phase absorbs the dip (row locks held by migration
// batches, redirects, lease recall storms); the utime phase runs after
// the migration settles and must match the fresh-4-shard row
// (recovery); the create phase runs before the reshard, matching the
// fresh-2-shard row. Results are also written as
// BENCH_reshard-under-load-*.json records.
func BenchmarkReshardUnderLoad(b *testing.B) {
	run := func(seed int64, shards, target int) (*trace.Result, *core.Deployment, error) {
		cfg := params.Default()
		cfg.COFS.MetadataShards = shards
		cfg.COFS.AttrLease = 30 * time.Second
		tb := cluster.New(seed, 4, cfg)
		d := core.Deploy(tb, nil)
		t := trace.Target{Env: tb.Env, Mounts: d.Mounts}
		phases := trace.Metarates(trace.MetaratesConfig{
			Nodes: 4, ProcsPerNode: 2, FilesPerProc: 256,
			Dir: "/shared", Ops: []string{"create", "stat", "utime"},
		})
		// The hook runs on a spawned sim proc: record the error and
		// surface it on the sub-benchmark's goroutine after the run.
		var hook func(p *sim.Proc, phase string)
		var reshardErr error
		if target > 0 {
			hook = func(p *sim.Proc, phase string) {
				if phase == "stat" && reshardErr == nil {
					reshardErr = d.Service.Reshard(p, target)
				}
			}
		}
		res, err := trace.Run(t, phases, hook)
		if err == nil && reshardErr != nil {
			err = fmt.Errorf("mid-storm reshard: %w", reshardErr)
		}
		return res, d, err
	}
	cases := []struct {
		name           string
		shards, target int
	}{
		{"storm-2to4", 2, 4},    // the measured migration
		{"fresh-4shards", 4, 0}, // recovery target
		{"fresh-2shards", 2, 0}, // pre-reshard baseline
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var res *trace.Result
			var d *core.Deployment
			var mt bench.Meter
			for i := 0; i < b.N; i++ {
				var err error
				mt.Start()
				res, d, err = run(int64(i+1), tc.shards, tc.target)
				mt.Stop()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MeanMs("stat"), "vms/op-stat")
			b.ReportMetric(res.MeanMs("utime"), "vms/op-utime")
			rec := bench.Record{
				Name:     "reshard-under-load/" + tc.name,
				Shards:   tc.shards,
				VmsPerOp: res.MeanMs("stat"),
				Extra: map[string]float64{
					"vms_per_op_create": res.MeanMs("create"),
					"vms_per_op_utime":  res.MeanMs("utime"),
				},
			}
			if tc.target > 0 {
				rec.Extra["target_shards"] = float64(tc.target)
			}
			mt.Fill(&rec, res.TotalOps())
			rec.SetCounters(d.Counters())
			if err := bench.WriteRecord(rec); err != nil {
				b.Logf("bench record: %v", err)
			}
		})
	}
	// The crash variant prices the recovery path instead of the storm:
	// the same 2048-row plane reshards 2→4 with no concurrent load,
	// dies at a mid-migration step with the flush windows open, and the
	// metric is the virtual wall time of Recover — replay plus the
	// reconcile-and-resume of the interrupted migration
	// (docs/resharding.md, "Shard lifecycle & crash consistency").
	b.Run("crash-recover-2to4", func(b *testing.B) {
		// The host-cost normalizer: the rows the interrupted migration
		// and its recovery re-home (4 nodes x 512 files).
		const rows = 4 * 512
		var recoverMs float64
		var d *core.Deployment
		var mt bench.Meter
		for i := 0; i < b.N; i++ {
			mt.Start()
			cfg := params.Default()
			cfg.COFS.MetadataShards = 2
			cfg.COFS.AttrLease = 30 * time.Second
			tb := cluster.New(int64(i+1), 4, cfg)
			d = core.Deploy(tb, nil)
			// Metarates phases unlink what they create, so the plane is
			// populated directly: the same 2048 rows, left in place for
			// the migration to move.
			tb.Env.Spawn("populate", func(p *sim.Proc) {
				ctx := cluster.Ctx(0, 1)
				if err := d.Mounts[0].MkdirAll(p, ctx, "/shared", 0777); err != nil {
					panic(err)
				}
			})
			tb.Run()
			for n := 0; n < 4; n++ {
				node := n
				tb.Env.Spawn(fmt.Sprintf("populate-%d", node), func(p *sim.Proc) {
					m := d.Mounts[node]
					ctx := cluster.Ctx(node, 1)
					for j := 0; j < 512; j++ {
						f, err := m.Create(p, ctx, fmt.Sprintf("/shared/r%d-f%04d", node, j), 0644)
						if err != nil {
							panic(err)
						}
						f.Close(p)
					}
				})
			}
			tb.Run()
			d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
				return seq == 5
			})
			var reshardErr error
			var recovered time.Duration
			tb.Env.Spawn("reshard-crash", func(p *sim.Proc) {
				if err := d.Service.Reshard(p, 4); err != core.ErrReshardInterrupted {
					reshardErr = fmt.Errorf("reshard returned %v, want interrupt", err)
					return
				}
				d.Service.Crash()
				start := tb.Env.Now()
				d.Service.Recover(p)
				recovered = tb.Env.Now() - start
				d.Service.AdoptIDCounter()
			})
			tb.Run()
			if reshardErr != nil {
				b.Fatal(reshardErr)
			}
			if err := d.Service.CheckInvariants(); err != nil {
				b.Fatalf("invariants after recovery: %v", err)
			}
			recoverMs = float64(recovered) / float64(time.Millisecond)
			mt.Stop()
		}
		b.ReportMetric(recoverMs, "vms/recovery")
		rec := bench.Record{
			Name:     "reshard-under-load/crash-recover-2to4",
			Shards:   2,
			VmsPerOp: recoverMs,
			Extra: map[string]float64{
				"recovery_vms":  recoverMs,
				"target_shards": 4,
			},
		}
		mt.Fill(&rec, rows)
		rec.SetCounters(d.Counters())
		if err := bench.WriteRecord(rec); err != nil {
			b.Logf("bench record: %v", err)
		}
	})
}
