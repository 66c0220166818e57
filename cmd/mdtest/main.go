// Command mdtest runs the mdtest-style tree metadata benchmark (see
// internal/trace) against the simulated stacks:
//
//	mdtest -fs gpfs -nodes 8 -depth 2 -branch 4 -files 256
//	mdtest -fs cofs -nodes 8 -shared -shift
//	mdtest -fs cofs -shards 2 -reshard-at file-create -reshard-to 4
//
// It reports per-phase operation rates, mdtest-style; with -reshard-at
// the COFS metadata plane reshards mid-phase while the ranks run. The
// deployment flags (-shards, -attr-lease, ..., -trace, -metrics,
// -slowlog, profiles) are the ones every COFS tool shares
// (bench.ToolFlags).
package main

import (
	"flag"
	"fmt"
	"os"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/trace"
)

func main() {
	var (
		fs        = flag.String("fs", "cofs", "stack: gpfs | cofs")
		nodes     = flag.Int("nodes", 4, "participating compute nodes")
		procs     = flag.Int("procs", 1, "ranks per node")
		depth     = flag.Int("depth", 2, "tree depth")
		branch    = flag.Int("branch", 4, "tree fanout per level")
		files     = flag.Int("files", 128, "files per rank")
		shared    = flag.Bool("shared", false, "all ranks share one tree (contended mode)")
		shift     = flag.Bool("shift", false, "rank r stats rank r+1's files (cross-node attributes)")
		seed      = flag.Int64("seed", 42, "deterministic seed")
		reshardAt = flag.String("reshard-at", "", "cofs: reshard mid-run, when this phase starts (e.g. file-create)")
		reshardTo = flag.Int("reshard-to", 0, "cofs: target shard count of the mid-run reshard")
	)
	tool := bench.BindToolFlags(flag.CommandLine)
	flag.Parse()
	cfg, stop := tool.Start("mdtest")
	defer stop()

	tb := cluster.New(*seed, *nodes, cfg)
	var tgt trace.Target
	var deployment *core.Deployment
	switch *fs {
	case "gpfs":
		tgt = trace.Target{Env: tb.Env, Mounts: tb.Mounts}
	case "cofs":
		deployment = core.Deploy(tb, nil)
		tgt = trace.Target{Env: tb.Env, Mounts: deployment.Mounts}
	default:
		fmt.Fprintf(os.Stderr, "mdtest: unknown fs %q\n", *fs)
		os.Exit(1)
	}

	phases := trace.MDTest(trace.MDTestConfig{
		Nodes: *nodes, ProcsPerNode: *procs, Depth: *depth, Branch: *branch, FilesPerRank: *files,
		Shared: *shared, StatShift: *shift,
	})
	hook := bench.ReshardAt("mdtest", *reshardAt, *reshardTo, deployment, trace.PhaseNames(phases))
	res, err := trace.Run(tgt, phases, hook)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdtest: %v\n", err)
		os.Exit(1)
	}
	mode := "unique trees"
	if *shared {
		mode = "shared tree"
	}
	fmt.Printf("mdtest on %s: %d ranks (%d nodes x %d), depth %d, branch %d, %d files/rank, %s, shift=%v\n\n",
		*fs, *nodes**procs, *nodes, *procs, *depth, *branch, *files, mode, *shift)
	fmt.Printf("%-14s%12s%14s%14s\n", "phase", "ops", "ops/sec", "mean ms")
	for _, ph := range trace.MDTestPhases {
		fmt.Printf("%-14s%12d%14.1f%14.3f\n", ph, res.PhaseOps[ph], res.Rate(ph), res.MeanMs(ph))
	}
	if deployment != nil {
		if *reshardAt != "" {
			fmt.Printf("\ncofs shards after run: %d (rows per shard: %v)\n",
				deployment.Service.ServingShards(), deployment.Service.ShardCounts())
		}
		fmt.Println()
		if err := tool.Report(os.Stdout, tb, deployment); err != nil {
			fmt.Fprintf(os.Stderr, "mdtest: %v\n", err)
			os.Exit(1)
		}
	}
}
