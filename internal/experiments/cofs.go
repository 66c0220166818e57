package experiments

import (
	"fmt"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/trace"
)

// cofsTarget assembles a COFS-over-GPFS testbed as a load target.
func cofsTarget(seed int64, nodes int, cfg params.Config, place core.Placement) (trace.Target, *core.Deployment) {
	tb := cluster.New(seed, nodes, cfg)
	d := core.Deploy(tb, place)
	return trace.Target{Env: tb.Env, Mounts: d.Mounts}, d
}

// Fig4Points is the files-per-node sweep used by Fig. 4/5 drivers (the
// paper sweeps 32..8192).
var Fig4Points = []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// sweepOp measures one metarates operation over the Fig. 4 points on
// both stacks at 4 and 8 nodes: one column per (stack, nodes) pair.
func sweepOp(seed int64, op string) Table {
	t := Table{X: "files per node"}
	for _, stack := range []string{"gpfs", "cofs"} {
		for _, nodes := range []int{4, 8} {
			t.Cols = append(t.Cols, Col{Label: fmt.Sprintf("%s %dn (ms)", stack, nodes)})
		}
	}
	for _, per := range Fig4Points {
		r := Row{X: fmt.Sprint(per)}
		for _, stack := range []string{"gpfs", "cofs"} {
			for _, nodes := range []int{4, 8} {
				r.Y = append(r.Y, meanMs(target(seed, stack, nodes, params.Default()), nodes, 1, per, op))
			}
		}
		t.Rows = append(t.Rows, r)
	}
	return t
}

// Fig4 reproduces "Create time (pure GPFS vs. COFS over GPFS)".
func Fig4(seed int64) Figure {
	return Figure{
		Title:  "Fig. 4: create time, pure GPFS vs COFS over GPFS (shared dir)",
		Tables: []Table{sweepOp(seed, "create")},
	}
}

// Fig5 reproduces "Stat time (pure GPFS vs. COFS over GPFS)".
func Fig5(seed int64) Figure {
	return Figure{
		Title:  "Fig. 5: stat time, pure GPFS vs COFS over GPFS (shared dir)",
		Tables: []Table{sweepOp(seed, "stat")},
		Notes:  []string{"\n(The paper notes utime and open/close closely track stat; see fig2/fig6.)"},
	}
}

// Fig6 reproduces "Operation times on 64 nodes": 256 files per node in a
// shared directory on the hierarchical topology.
func Fig6(seed int64) Figure {
	phases := trace.Metarates(trace.MetaratesConfig{Nodes: 64, ProcsPerNode: 1, FilesPerProc: 256, Dir: "/shared"})
	g := run(target(seed, "gpfs", 64, params.Default()), phases)
	c := run(target(seed, "cofs", 64, params.Default()), phases)
	t := Table{X: "op", Cols: []Col{{Label: "gpfs (ms)"}, {Label: "cofs (ms)"}}}
	for _, op := range trace.DefaultOps {
		t.Rows = append(t.Rows, Row{X: op, Y: []float64{g.MeanMs(op), c.MeanMs(op)}})
	}
	return Figure{Title: "Fig. 6: 64 nodes, 256 files per node, shared dir", Tables: []Table{t}}
}

// Ablation compares placement policies on the Fig. 4 create workload (4
// nodes, 512 files per node): the paper's full policy, node-only
// hashing, no randomization level, no 512-entry cap, and the flat
// (no-virtualization) baseline.
func Ablation(seed int64) Figure {
	type variant struct {
		name  string
		place core.Placement
		tweak func(*params.Config)
	}
	full := params.Default()
	variants := []variant{
		{name: "paper: hash(node,parent,pid)+rand+cap", place: nil},
		{name: "no randomization level", place: core.HashPlacement{Fanout: full.COFS.DirFanout, RandomSubdirs: 1}},
		{name: "hash(node) only", place: core.NodeHashPlacement{Fanout: full.COFS.DirFanout}},
		{name: "no 512-entry cap", place: nil, tweak: func(c *params.Config) { c.COFS.MaxEntriesPerDir = 0 }},
		{name: "flat (no virtualization benefit)", place: core.FlatPlacement{}, tweak: func(c *params.Config) { c.COFS.MaxEntriesPerDir = 0 }},
	}
	t := Table{X: "placement", Cols: []Col{{Label: "create (ms)"}, {Label: "stat (ms)"}}}
	for _, v := range variants {
		cfg := params.Default()
		if v.tweak != nil {
			v.tweak(&cfg)
		}
		ct, _ := cofsTarget(seed, 4, cfg, v.place)
		res := run(ct, trace.Metarates(trace.MetaratesConfig{
			Nodes: 4, ProcsPerNode: 1, FilesPerProc: 512,
			Dir: "/shared", Ops: []string{"create", "stat"},
		}))
		t.Rows = append(t.Rows, Row{X: v.name, Y: []float64{res.MeanMs("create"), res.MeanMs("stat")}})
	}
	return Figure{Title: "Ablation: placement policy vs create/stat latency (4 nodes, 512 files/node)", Tables: []Table{t}}
}
