// Batchjobs: the paper's second motivating workload (section II) —
// "large bunches" of loosely coupled small jobs, each writing its output
// file into a shared results directory, launched in waves across the
// cluster. Compares job-completion throughput on bare GPFS vs COFS.
//
// Run with: go run ./examples/batchjobs
package main

import (
	"fmt"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

const (
	nodes       = 8
	jobsPerWave = 2 // job slots per node per wave
	waves       = 24
	outputBytes = 16 << 10
)

func main() {
	fmt.Printf("batch farm: %d nodes x %d jobs/wave x %d waves -> %d jobs, shared output dir\n\n",
		nodes, jobsPerWave, waves, nodes*jobsPerWave*waves)
	g, gSweep := runFarm("gpfs")
	c, cSweep := runFarm("cofs")
	fmt.Printf("\n%-8s%16s%22s\n", "stack", "submit jobs/s", "analysis sweep ms/f")
	fmt.Printf("%-8s%16.1f%22.2f\n", "gpfs", g, gSweep)
	fmt.Printf("%-8s%16.1f%22.2f\n", "cofs", c, cSweep)
	fmt.Printf("\nsubmission: %.1fx; analysis traversal: %.1fx with COFS\n", c/g, gSweep/cSweep)
	fmt.Println("(job submission trades GPFS's creator-local attrs against COFS's service")
	fmt.Println(" round trips; the cross-node analysis sweep is where virtualization wins)")
}

func runFarm(stack string) (jobsPerSec, sweepMsPerFile float64) {
	tb := cluster.New(11, nodes, params.Default())
	target := trace.Target{Env: tb.Env, Mounts: tb.Mounts}
	var d *core.Deployment
	if stack == "cofs" {
		d = core.Deploy(tb, nil)
		target.Mounts = d.Mounts
	}
	tb.Env.Spawn("setup", func(p *sim.Proc) {
		if err := target.Mounts[0].MkdirAll(p, cluster.Ctx(0, 1), "/farm/results", 0777); err != nil {
			panic(err)
		}
	})
	tb.Run()

	start := tb.Env.Now()
	var latest time.Duration
	total := 0
	for wave := 0; wave < waves; wave++ {
		for n := 0; n < nodes; n++ {
			for j := 0; j < jobsPerWave; j++ {
				node, pid, id := n, j+1, total
				total++
				tb.Env.Spawn("job", func(p *sim.Proc) {
					m := target.Mounts[node]
					ctx := cluster.Ctx(node, pid)
					// Each job: brief compute, write its result, chmod
					// it read-only, and double-check it landed. The farm
					// is metadata-bound: jobs are short and output-heavy,
					// the paper's "large amounts of relatively small
					// jobs" (section II).
					p.Sleep(2 * time.Millisecond)
					name := fmt.Sprintf("/farm/results/job-%05d.out", id)
					f, err := m.Create(p, ctx, name, 0644)
					if err != nil {
						panic(err)
					}
					if _, err := f.WriteAt(p, 0, outputBytes); err != nil {
						panic(err)
					}
					if err := f.Close(p); err != nil {
						panic(err)
					}
					if _, err := m.Chmod(p, ctx, name, 0444); err != nil {
						panic(err)
					}
					if _, err := m.Stat(p, ctx, name); err != nil {
						panic(err)
					}
					if p.Now() > latest {
						latest = p.Now()
					}
				})
			}
		}
		tb.Run() // wave barrier: the scheduler launches the next bunch
	}
	makespan := latest - start

	// The analysis step (the paper's "results which are later to be
	// gathered and analyzed"): a node that ran none of the jobs sweeps
	// the whole results directory.
	var sweep time.Duration
	tb.Env.Spawn("analysis", func(p *sim.Proc) {
		m := target.Mounts[nodes-1]
		ctx := cluster.Ctx(nodes-1, 9)
		sweepStart := p.Now()
		ents, err := m.Readdir(p, ctx, "/farm/results")
		if err != nil {
			panic(err)
		}
		if len(ents) != total {
			panic(fmt.Sprintf("%s: results missing: %d != %d", stack, len(ents), total))
		}
		var bytes int64
		for _, e := range ents {
			attr, err := m.Stat(p, ctx, "/farm/results/"+e.Name)
			if err != nil {
				panic(err)
			}
			if attr.Mode != 0444 {
				panic("job output not sealed read-only")
			}
			bytes += attr.Size
		}
		sweep = p.Now() - sweepStart
		fmt.Printf("%s: %d job outputs, %d MiB, makespan %v, analysis sweep %v\n",
			stack, len(ents), bytes>>20, makespan.Round(time.Millisecond), sweep.Round(time.Millisecond))
	})
	tb.Run()
	_ = vfs.TypeRegular
	return float64(total) / makespan.Seconds(),
		float64(sweep) / float64(time.Millisecond) / float64(total)
}
