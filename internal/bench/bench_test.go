package bench_test

import (
	"testing"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/trace"
)

func gpfsTarget(nodes int) (trace.Target, *cluster.Testbed) {
	tb := cluster.New(1, nodes, params.Default())
	return trace.Target{Env: tb.Env, Mounts: tb.Mounts}, tb
}

func cofsTarget(nodes int) (trace.Target, *cluster.Testbed) {
	tb := cluster.New(1, nodes, params.Default())
	d := core.Deploy(tb, nil)
	return trace.Target{Env: tb.Env, Mounts: d.Mounts}, tb
}

// run drives target through the phases, failing the test on an error.
func run(t *testing.T, target trace.Target, phases []trace.Phase) *trace.Result {
	t.Helper()
	res, err := trace.Run(target, phases, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMetaratesCountsAndPhases(t *testing.T) {
	target, tb := gpfsTarget(2)
	res := run(t, target, trace.Metarates(trace.MetaratesConfig{
		Nodes: 2, ProcsPerNode: 2, FilesPerProc: 16, Dir: "/d",
	}))
	for _, op := range trace.DefaultOps {
		s, ok := res.PerPhase[op]
		if !ok {
			t.Fatalf("missing op %q", op)
		}
		if s.N() != 2*2*16 {
			t.Fatalf("%s samples=%d, want 64", op, s.N())
		}
		if s.Mean() <= 0 {
			t.Fatalf("%s mean not positive", op)
		}
		if res.PhaseTime[op] <= 0 {
			t.Fatalf("%s phase time missing", op)
		}
	}
	// Every phase deletes its files: only the shared dir and root remain.
	if err := tb.FS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	files, _ := tb.FS.CountObjects()
	if files != 2 { // root + /d
		t.Fatalf("leftover objects: %d", files)
	}
}

func TestMetaratesSingleOpSubset(t *testing.T) {
	target, _ := gpfsTarget(1)
	res := run(t, target, trace.Metarates(trace.MetaratesConfig{
		Nodes: 1, ProcsPerNode: 1, FilesPerProc: 8, Dir: "/d",
		Ops: []string{"stat"},
	}))
	if len(res.PerPhase) != 1 || res.PerPhase["stat"].N() != 8 {
		t.Fatalf("unexpected result: %+v", res.PerPhase)
	}
	if res.MeanMs("create") != 0 {
		t.Fatal("MeanMs for unmeasured op should be 0")
	}
}

func TestMetaratesCOFSBeatsGPFSOnCreate(t *testing.T) {
	gt, _ := gpfsTarget(4)
	gres := run(t, gt, trace.Metarates(trace.MetaratesConfig{
		Nodes: 4, ProcsPerNode: 1, FilesPerProc: 64, Dir: "/d",
		Ops: []string{"create"},
	}))
	ct, _ := cofsTarget(4)
	cres := run(t, ct, trace.Metarates(trace.MetaratesConfig{
		Nodes: 4, ProcsPerNode: 1, FilesPerProc: 64, Dir: "/d",
		Ops: []string{"create"},
	}))
	if cres.MeanMs("create")*2 > gres.MeanMs("create") {
		t.Fatalf("cofs=%.2fms gpfs=%.2fms: expected clear win",
			cres.MeanMs("create"), gres.MeanMs("create"))
	}
}

func TestIORSeparateFiles(t *testing.T) {
	target, tb := gpfsTarget(2)
	res := bench.IOR(target, bench.IORConfig{
		Nodes: 2, AggregateBytes: 64 << 20, TransferSize: 1 << 20,
		Dir: "/ior", ReadBack: true,
	})
	if res.WriteMBps <= 0 || res.ReadMBps <= 0 {
		t.Fatalf("rates: %+v", res)
	}
	// Just-written data is page-pool cached: reads much faster.
	if res.ReadMBps < 3*res.WriteMBps {
		t.Fatalf("cached read %.1f not ≫ write %.1f", res.ReadMBps, res.WriteMBps)
	}
	if err := tb.FS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIORSharedFile(t *testing.T) {
	target, tb := gpfsTarget(4)
	res := bench.IOR(target, bench.IORConfig{
		Nodes: 4, AggregateBytes: 64 << 20, TransferSize: 1 << 20,
		Shared: true, Dir: "/ior", ReadBack: true,
	})
	if res.WriteMBps <= 0 {
		t.Fatalf("shared write rate: %+v", res)
	}
	// One shared file exists with the full aggregate size.
	files, _ := tb.FS.CountObjects()
	if files != 3 { // root + /ior + shared file
		t.Fatalf("objects=%d, want 3", files)
	}
}

func TestIORRandomDeterministic(t *testing.T) {
	run := func() float64 {
		target, _ := gpfsTarget(2)
		res := bench.IOR(target, bench.IORConfig{
			Nodes: 2, AggregateBytes: 32 << 20, TransferSize: 1 << 20,
			Random: true, Dir: "/ior", ReadBack: true,
		})
		return res.WriteMBps
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("random IOR not deterministic: %v vs %v", a, b)
	}
}

// TestIORRejectsPartialTransfers: a config whose aggregate does not
// split into a positive whole number of transfers per node is refused
// before anything runs, so no rate is ever reported for bytes the run
// did not move.
func TestIORRejectsPartialTransfers(t *testing.T) {
	for _, cfg := range []bench.IORConfig{
		{Nodes: 4, AggregateBytes: 3 << 20},                        // zero transfers per node
		{Nodes: 3, AggregateBytes: 1 << 30},                        // 1 MiB short
		{Nodes: 2, AggregateBytes: 3 << 20, TransferSize: 1 << 20}, // one node 0.5 MiB over
		{Nodes: 0, AggregateBytes: 1 << 20},
		{Nodes: 2, AggregateBytes: 0},
	} {
		if err := cfg.Check(); err == nil {
			t.Errorf("%+v passed Check", cfg)
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IOR ran %+v", cfg)
				}
			}()
			target, _ := gpfsTarget(4)
			bench.IOR(target, cfg)
		}()
	}
	for _, cfg := range []bench.IORConfig{
		{Nodes: 4, AggregateBytes: 4 << 20},
		{Nodes: 3, AggregateBytes: 3 << 20, TransferSize: 1 << 20},
		{Nodes: 2, AggregateBytes: 3 << 20, TransferSize: 512 << 10},
	} {
		if err := cfg.Check(); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

func TestIORThroughCOFSComparable(t *testing.T) {
	gt, _ := gpfsTarget(4)
	g := bench.IOR(gt, bench.IORConfig{
		Nodes: 4, AggregateBytes: 256 << 20, TransferSize: 1 << 20,
		Dir: "/ior", ReadBack: false,
	})
	ct, _ := cofsTarget(4)
	c := bench.IOR(ct, bench.IORConfig{
		Nodes: 4, AggregateBytes: 256 << 20, TransferSize: 1 << 20,
		Dir: "/ior", ReadBack: false,
	})
	ratio := c.WriteMBps / g.WriteMBps
	if ratio < 0.8 || ratio > 1.1 {
		t.Fatalf("Table I: cofs/gpfs write ratio %.2f outside [0.8, 1.1] (gpfs=%.1f cofs=%.1f)",
			ratio, g.WriteMBps, c.WriteMBps)
	}
	// Both staggers are small against the multi-second transfer; COFS's
	// includes one-time bucket creation, so allow a loose bound.
	if c.OpenStagger > 5*g.OpenStagger {
		t.Fatalf("cofs open stagger %v vs gpfs %v", c.OpenStagger, g.OpenStagger)
	}
}

func TestIORSmallFileReadPenalty(t *testing.T) {
	// Table I's distinctive cell: cached small-file reads are much
	// faster on bare GPFS than through the FUSE copies of COFS.
	gt, _ := gpfsTarget(4)
	g := bench.IOR(gt, bench.IORConfig{
		Nodes: 4, AggregateBytes: 64 << 20, TransferSize: 1 << 20,
		Dir: "/ior", ReadBack: true,
	})
	ct, _ := cofsTarget(4)
	c := bench.IOR(ct, bench.IORConfig{
		Nodes: 4, AggregateBytes: 64 << 20, TransferSize: 1 << 20,
		Dir: "/ior", ReadBack: true,
	})
	if g.ReadMBps < 2*c.ReadMBps {
		t.Fatalf("expected gpfs cached reads ≫ cofs: gpfs=%.1f cofs=%.1f",
			g.ReadMBps, c.ReadMBps)
	}
}
