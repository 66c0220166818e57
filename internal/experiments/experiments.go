// Package experiments holds one driver per table/figure of the paper's
// evaluation, shared by cmd/experiments and the repository benchmarks.
package experiments

import (
	"fmt"
	"io"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/params"
	"cofs/internal/stats"
)

// gpfsTarget assembles a bare GPFS-like testbed as a bench target.
func gpfsTarget(seed int64, nodes int, cfg params.Config) (bench.Target, *cluster.Testbed) {
	tb := cluster.New(seed, nodes, cfg)
	return bench.Target{Env: tb.Env, Mounts: tb.Mounts, Ctx: cluster.Ctx}, tb
}

// Fig1 reproduces "Effect of the number of entries in a directory in
// GPFS": single node, 1 and 2 processes, average metadata operation time
// versus directory size, bare GPFS.
func Fig1(w io.Writer, seed int64) {
	fmt.Fprintln(w, "== Fig. 1: single-node GPFS metadata latency vs directory size ==")
	sizes := []int{64, 128, 256, 512, 768, 1024, 1280, 1536, 2048, 2560}
	ops := bench.DefaultOps
	series := map[string][2]*stats.Series{}
	for _, op := range ops {
		series[op] = [2]*stats.Series{
			{Label: "1 proc (ms)"},
			{Label: "2 procs (ms)"},
		}
	}
	for _, procs := range []int{1, 2} {
		for _, size := range sizes {
			t, _ := gpfsTarget(seed, 1, params.Default())
			res := bench.Metarates(t, bench.MetaratesConfig{
				Nodes:        1,
				ProcsPerNode: procs,
				FilesPerProc: size / procs,
				Dir:          "/shared",
			})
			for _, op := range ops {
				series[op][procs-1].Append(float64(size), res.MeanMs(op))
			}
		}
	}
	for _, op := range ops {
		fmt.Fprintf(w, "\n-- avg time per %s --\n", op)
		s := series[op]
		fmt.Fprint(w, stats.Table("files per dir", s[0], s[1]))
	}
	fmt.Fprintln(w)
}

// Fig2 reproduces "Parallel metadata behavior of GPFS": 4 and 8 nodes,
// 1024/4096/16384 files in one shared directory.
func Fig2(w io.Writer, seed int64) {
	fmt.Fprintln(w, "== Fig. 2: parallel GPFS metadata latency (shared directory) ==")
	ops := bench.DefaultOps
	totals := []int{1024, 4096, 16384}
	for _, nodes := range []int{4, 8} {
		rows := make([]*stats.Series, len(totals))
		for i, total := range totals {
			rows[i] = &stats.Series{Label: fmt.Sprintf("%d files (ms)", total)}
			t, _ := gpfsTarget(seed, nodes, params.Default())
			res := bench.Metarates(t, bench.MetaratesConfig{
				Nodes:        nodes,
				ProcsPerNode: 1,
				FilesPerProc: total / nodes,
				Dir:          "/shared",
			})
			for opIdx, op := range ops {
				rows[i].Append(float64(opIdx), res.MeanMs(op))
			}
		}
		fmt.Fprintf(w, "\n-- %d nodes (rows: create/stat/utime/open) --\n", nodes)
		fmt.Fprintf(w, "%-16s", "op")
		for _, r := range rows {
			fmt.Fprintf(w, "%16s", r.Label)
		}
		fmt.Fprintln(w)
		for opIdx, op := range ops {
			fmt.Fprintf(w, "%-16s", op)
			for _, r := range rows {
				fmt.Fprintf(w, "%16.3f", r.Y[opIdx])
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}
