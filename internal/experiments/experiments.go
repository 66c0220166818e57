// Package experiments holds one driver per table/figure of the paper's
// evaluation. A driver returns its Figure; cmd/experiments prints it and
// BenchmarkPaperFigures records every point for the bench gate.
package experiments

import (
	"fmt"

	"cofs/internal/cluster"
	"cofs/internal/params"
	"cofs/internal/trace"
)

// target assembles a testbed of the named stack: "cofs" over GPFS with
// the default placement, or bare "gpfs".
func target(seed int64, stack string, nodes int, cfg params.Config) trace.Target {
	if stack == "cofs" {
		t, _ := cofsTarget(seed, nodes, cfg, nil)
		return t
	}
	tb := cluster.New(seed, nodes, cfg)
	return trace.Target{Env: tb.Env, Mounts: tb.Mounts}
}

// run drives the target through a generated benchmark's phases. A
// failed operation means the figure is broken, so it panics.
func run(t trace.Target, phases []trace.Phase) *trace.Result {
	res, err := trace.Run(t, phases, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// meanMs runs metarates' op alone in the shared directory and returns
// its mean virtual latency in milliseconds.
func meanMs(t trace.Target, nodes, procs, files int, op string) float64 {
	return run(t, trace.Metarates(trace.MetaratesConfig{
		Nodes: nodes, ProcsPerNode: procs, FilesPerProc: files,
		Dir: "/shared", Ops: []string{op},
	})).MeanMs(op)
}

// Fig1 reproduces "Effect of the number of entries in a directory in
// GPFS": single node, 1 and 2 processes, average metadata operation time
// versus directory size, bare GPFS.
func Fig1(seed int64) Figure {
	f := Figure{Title: "Fig. 1: single-node GPFS metadata latency vs directory size"}
	for _, op := range trace.DefaultOps {
		f.Tables = append(f.Tables, Table{
			Name: op, Heading: fmt.Sprintf("\n-- avg time per %s --", op),
			X: "files per dir", Cols: []Col{{Label: "1 proc (ms)"}, {Label: "2 procs (ms)"}},
		})
	}
	for _, size := range []int{64, 128, 256, 512, 768, 1024, 1280, 1536, 2048, 2560} {
		rows := make([]Row, len(f.Tables))
		for procs := 1; procs <= 2; procs++ {
			t := target(seed, "gpfs", 1, params.Default())
			res := run(t, trace.Metarates(trace.MetaratesConfig{
				Nodes: 1, ProcsPerNode: procs, FilesPerProc: size / procs, Dir: "/shared",
			}))
			for i, op := range trace.DefaultOps {
				rows[i].X = fmt.Sprint(size)
				rows[i].Y = append(rows[i].Y, res.MeanMs(op))
			}
		}
		for i := range f.Tables {
			f.Tables[i].Rows = append(f.Tables[i].Rows, rows[i])
		}
	}
	return f
}

// Fig2 reproduces "Parallel metadata behavior of GPFS": 4 and 8 nodes,
// 1024/4096/16384 files in one shared directory.
func Fig2(seed int64) Figure {
	f := Figure{Title: "Fig. 2: parallel GPFS metadata latency (shared directory)"}
	for _, nodes := range []int{4, 8} {
		t := Table{
			Name:    fmt.Sprintf("%d nodes", nodes),
			Heading: fmt.Sprintf("\n-- %d nodes (rows: create/stat/utime/open) --", nodes),
			X:       "op",
		}
		var res []*trace.Result
		for _, total := range []int{1024, 4096, 16384} {
			t.Cols = append(t.Cols, Col{Label: fmt.Sprintf("%d files (ms)", total)})
			gt := target(seed, "gpfs", nodes, params.Default())
			res = append(res, run(gt, trace.Metarates(trace.MetaratesConfig{
				Nodes: nodes, ProcsPerNode: 1, FilesPerProc: total / nodes, Dir: "/shared",
			})))
		}
		for _, op := range trace.DefaultOps {
			r := Row{X: op}
			for _, rs := range res {
				r.Y = append(r.Y, rs.MeanMs(op))
			}
			t.Rows = append(t.Rows, r)
		}
		f.Tables = append(f.Tables, t)
	}
	return f
}
