// Command tracereplay generates file-system operation traces for the
// paper's motivating workloads and replays traces against the simulated
// stacks (bare GPFS-like, or COFS over it), reporting per-operation
// latency. Traces are plain text (see internal/trace) so they can be
// inspected, edited and diffed.
//
// Generate a trace:
//
//	tracereplay -gen checkpoint -nodes 8 -o ckpt.trace
//	tracereplay -gen batch -nodes 8 -jobs 128 -o batch.trace
//	tracereplay -gen mixed -nodes 4 -ops 500 -seed 7 -o mix.trace
//
// Replay it:
//
//	tracereplay -i ckpt.trace -fs gpfs
//	tracereplay -i ckpt.trace -fs cofs -timed
//
// Generate and replay in one go (no file):
//
//	tracereplay -gen batch -nodes 8 -fs cofs
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/trace"
)

func main() {
	var (
		gen     = flag.String("gen", "", "generate a trace: checkpoint | batch | mixed")
		in      = flag.String("i", "", "replay this trace file")
		out     = flag.String("o", "", "write the generated trace here instead of replaying")
		fs      = flag.String("fs", "cofs", "stack to replay against: gpfs | cofs")
		nodes   = flag.Int("nodes", 4, "number of compute nodes")
		jobs    = flag.Int("jobs", 64, "batch generator: total jobs")
		rounds  = flag.Int("rounds", 4, "checkpoint generator: epochs")
		ops     = flag.Int("ops", 400, "mixed generator: operations per node")
		bytes   = flag.Int64("bytes", 1<<20, "payload bytes (per node for checkpoint, per file otherwise)")
		seed    = flag.Int64("seed", 42, "deterministic seed")
		timed   = flag.Bool("timed", false, "honour recorded operation times (default: as fast as possible)")
		verbose = flag.Bool("v", false, "print the trace header before replaying")
	)
	flag.Parse()

	tr, err := obtainTrace(*gen, *in, *nodes, *jobs, *rounds, *ops, *bytes, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracereplay:", err)
		os.Exit(1)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracereplay:", err)
			os.Exit(1)
		}
		if err := tr.Encode(f); err != nil {
			fmt.Fprintln(os.Stderr, "tracereplay: encode:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tracereplay: close:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d ops (%d nodes, span %v) to %s\n",
			len(tr.Ops), tr.Nodes(), tr.Duration(), *out)
		return
	}

	if *verbose {
		fmt.Printf("trace: %d ops, %d nodes, span %v, kinds %v\n",
			len(tr.Ops), tr.Nodes(), tr.Duration(), tr.KindCounts())
	}

	n := tr.Nodes()
	if n < 1 {
		fmt.Fprintln(os.Stderr, "tracereplay: empty trace")
		os.Exit(1)
	}
	tgt, cleanupCheck := buildTarget(*fs, *seed, n)
	res, err := trace.Replay(tgt, tr, trace.ReplayOptions{Timed: *timed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracereplay:", err)
		os.Exit(1)
	}
	fmt.Printf("replayed on %s (%d nodes, timed=%v):\n%s", *fs, n, *timed, res.Report())
	if res.FirstErr != nil {
		fmt.Printf("first error: %v\n", res.FirstErr)
	}
	if err := cleanupCheck(); err != nil {
		fmt.Fprintln(os.Stderr, "tracereplay: post-replay invariants:", err)
		os.Exit(1)
	}
}

// obtainTrace loads or generates the trace.
func obtainTrace(gen, in string, nodes, jobs, rounds, ops int, bytes, seed int64) (*trace.Trace, error) {
	switch {
	case in != "" && gen != "":
		return nil, fmt.Errorf("use either -i or -gen, not both")
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Decode(f)
	case gen == "checkpoint":
		return trace.GenCheckpoint(trace.CheckpointConfig{
			Nodes: nodes, Rounds: rounds, BytesPerNode: bytes,
			Interval: 10 * time.Second,
		}), nil
	case gen == "batch":
		return trace.GenBatchJobs(trace.BatchConfig{
			Nodes: nodes, Jobs: jobs, FilesPerJob: 4, BytesPerFile: bytes,
			Stagger: 50 * time.Millisecond,
		}), nil
	case gen == "mixed":
		return trace.GenMixed(rand.New(rand.NewSource(seed)), trace.MixedConfig{
			Nodes: nodes, OpsPerNode: ops, Dirs: 4, MaxBytes: bytes,
			Spacing: 5 * time.Millisecond,
		}), nil
	case gen == "":
		return nil, fmt.Errorf("nothing to do: pass -gen or -i (see -h)")
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}

// buildTarget assembles the requested stack; the returned function runs
// post-replay invariant checks.
func buildTarget(fs string, seed int64, nodes int) (trace.Target, func() error) {
	tb := cluster.New(seed, nodes, params.Default())
	switch fs {
	case "gpfs":
		return trace.Target{Env: tb.Env, Mounts: tb.Mounts},
			tb.FS.Tokens.CheckInvariants
	case "cofs":
		d := core.Deploy(tb, nil)
		return trace.Target{Env: tb.Env, Mounts: d.Mounts},
			func() error {
				if err := d.Service.CheckInvariants(); err != nil {
					return err
				}
				return tb.FS.Tokens.CheckInvariants()
			}
	default:
		fmt.Fprintf(os.Stderr, "tracereplay: unknown fs %q (want gpfs or cofs)\n", fs)
		os.Exit(1)
		return trace.Target{}, nil
	}
}
