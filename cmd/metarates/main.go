// Command metarates runs the metarates benchmark (UCAR/NCAR — parallel
// metadata transaction rates) against the simulated testbed, on either
// the bare GPFS-like file system or COFS over it. With -reshard-at the
// COFS metadata plane reshards to -reshard-to shards mid-run, while the
// named operation's storm is executing.
//
// Usage:
//
//	metarates [-fs gpfs|cofs] [-nodes N] [-procs P] [-files F] [-dir D] [-ops list] [-seed S]
//	          [-reshard-at op -reshard-to M2] [deployment flags]
//
// The deployment flags (-shards, -attr-lease, ..., -trace, -metrics,
// -slowlog, profiles) are the ones every COFS tool shares
// (bench.ToolFlags).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/trace"
)

func main() {
	fsKind := flag.String("fs", "gpfs", "file system under test: gpfs or cofs")
	nodes := flag.Int("nodes", 4, "number of compute nodes")
	procs := flag.Int("procs", 1, "processes per node")
	files := flag.Int("files", 256, "files per process")
	dir := flag.String("dir", "/shared", "shared directory")
	ops := flag.String("ops", strings.Join(trace.DefaultOps, ","), "comma-separated operations")
	seed := flag.Int64("seed", 1, "simulation seed")
	reshardAt := flag.String("reshard-at", "", "cofs: reshard the metadata plane mid-run, when this operation's phase starts")
	reshardTo := flag.Int("reshard-to", 0, "cofs: target shard count of the mid-run reshard")
	tool := bench.BindToolFlags(flag.CommandLine)
	flag.Parse()
	cfg, stop := tool.Start("metarates")
	defer stop()

	tb := cluster.New(*seed, *nodes, cfg)
	target := trace.Target{Env: tb.Env, Mounts: tb.Mounts}
	var deployment *core.Deployment
	switch *fsKind {
	case "gpfs":
	case "cofs":
		deployment = core.Deploy(tb, nil)
		target.Mounts = deployment.Mounts
	default:
		fmt.Fprintln(os.Stderr, "metarates: -fs must be gpfs or cofs")
		os.Exit(2)
	}

	opList := strings.Split(*ops, ",")
	for _, op := range opList {
		if !slices.Contains(trace.DefaultOps, op) {
			fmt.Fprintf(os.Stderr, "metarates: unknown op %q in -ops (want some of %s)\n", op, strings.Join(trace.DefaultOps, ","))
			os.Exit(2)
		}
	}
	phases := trace.Metarates(trace.MetaratesConfig{
		Nodes:        *nodes,
		ProcsPerNode: *procs,
		FilesPerProc: *files,
		Dir:          *dir,
		Ops:          opList,
	})
	hook := bench.ReshardAt("metarates", *reshardAt, *reshardTo, deployment, trace.PhaseNames(phases))
	res, err := trace.Run(target, phases, hook)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metarates: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("metarates: fs=%s nodes=%d procs/node=%d files/proc=%d dir=%s\n",
		*fsKind, *nodes, *procs, *files, *dir)
	fmt.Printf("%-10s%14s%14s%14s%16s\n", "op", "mean (ms)", "p50 (ms)", "max (ms)", "aggregate op/s")
	for _, op := range opList {
		s, ok := res.PerPhase[op]
		if !ok || s.N() == 0 {
			continue
		}
		fmt.Printf("%-10s%14.3f%14.3f%14.3f%16.0f\n", op,
			s.MeanMs(),
			float64(s.Percentile(50))/1e6,
			float64(s.Max())/1e6,
			res.Rate(op))
	}
	if deployment != nil {
		st := deployment.Service.Stats()
		fmt.Printf("\ncofs service: %d requests (%d creates, %d lookups, %d getattrs, %d updates, %d removes, %d peer rpcs)\n",
			st.Requests, st.Creates, st.Lookups, st.Getattrs, st.Updates, st.Removes, st.PeerCalls)
		if *reshardAt != "" {
			fmt.Printf("cofs shards after run: %d (rows per shard: %v)\n",
				deployment.Service.ServingShards(), deployment.Service.ShardCounts())
		}
		if err := tool.Report(os.Stdout, tb, deployment); err != nil {
			fmt.Fprintf(os.Stderr, "metarates: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("virtual time elapsed: %v\n", tb.Env.Now())
}
