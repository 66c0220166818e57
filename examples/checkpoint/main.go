// Checkpoint: the paper's motivating workload (section II) — a large
// parallel application where every node dumps its state into a per-node
// checkpoint file in one shared directory, periodically. The example
// runs the same application against bare GPFS and against COFS over
// GPFS and reports per-round checkpoint latency.
//
// Run with: go run ./examples/checkpoint
package main

import (
	"fmt"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

const (
	nodes      = 8
	rounds     = 8
	chunkBytes = 512 << 10 // checkpoint payload per node per round
	auxFiles   = 12        // small per-node auxiliary files per round
	auxBytes   = 32 << 10
)

func main() {
	fmt.Printf("parallel checkpoint: %d nodes x %d rounds, %d KiB + %d aux files per node per round, one shared dir\n\n",
		nodes, rounds, chunkBytes>>10, auxFiles)
	gpfs := runApp("gpfs")
	cofs := runApp("cofs")
	fmt.Printf("\n%-8s%18s%18s\n", "stack", "mean round (ms)", "worst round (ms)")
	fmt.Printf("%-8s%18.1f%18.1f\n", "gpfs", gpfs.MeanMs(), float64(gpfs.Max())/1e6)
	fmt.Printf("%-8s%18.1f%18.1f\n", "cofs", cofs.MeanMs(), float64(cofs.Max())/1e6)
	fmt.Printf("\ncheckpoint speedup with COFS: %.1fx\n", gpfs.MeanMs()/cofs.MeanMs())
}

func runApp(stack string) *stats.Summary {
	tb := cluster.New(7, nodes, params.Default())
	target := trace.Target{Env: tb.Env, Mounts: tb.Mounts}
	if stack == "cofs" {
		target.Mounts = core.Deploy(tb, nil).Mounts
	}
	target.Env.Spawn("setup", func(p *sim.Proc) {
		if err := target.Mounts[0].MkdirAll(p, cluster.Ctx(0, 1), "/ckpt", 0777); err != nil {
			panic(err)
		}
	})
	tb.Run()

	perRound := &stats.Summary{}
	for round := 0; round < rounds; round++ {
		start := tb.Env.Now()
		var latest time.Duration
		for n := 0; n < nodes; n++ {
			node, r := n, round
			tb.Env.Spawn("ckpt", func(p *sim.Proc) {
				m := target.Mounts[node]
				ctx := cluster.Ctx(node, 1)
				// Simulate compute between checkpoints.
				p.Sleep(50 * time.Millisecond)
				name := fmt.Sprintf("/ckpt/step%03d.rank%03d", r, node)
				f, err := m.Create(p, ctx, name, 0644)
				if err != nil {
					panic(err)
				}
				if _, err := f.WriteAt(p, 0, chunkBytes); err != nil {
					panic(err)
				}
				if err := f.Fsync(p); err != nil {
					panic(err)
				}
				if err := f.Close(p); err != nil {
					panic(err)
				}
				// Per-node auxiliary files (the paper's section II:
				// applications also "create per-node auxiliary files"
				// next to the checkpoints).
				for a := 0; a < auxFiles; a++ {
					aux, err := m.Create(p, ctx, fmt.Sprintf("%s.aux%d", name, a), 0644)
					if err != nil {
						panic(err)
					}
					aux.WriteAt(p, 0, auxBytes)
					if err := aux.Close(p); err != nil {
						panic(err)
					}
				}
				if p.Now() > latest {
					latest = p.Now()
				}
			})
		}
		// The barrier drains background work (e.g. the metadata
		// service's log flusher); the round ends when the last NODE
		// finished, not when the simulation idles.
		tb.Run()
		perRound.Add(latest - start)
	}

	// Sanity: all checkpoints visible from node 0.
	tb.Env.Spawn("verify", func(p *sim.Proc) {
		ents, err := target.Mounts[0].Readdir(p, cluster.Ctx(0, 1), "/ckpt")
		if err != nil {
			panic(err)
		}
		want := nodes * rounds * (1 + auxFiles)
		if len(ents) != want {
			panic(fmt.Sprintf("%s: %d checkpoint files visible, want %d", stack, len(ents), want))
		}
		var total int64
		for _, e := range ents {
			attr, err := target.Mounts[0].Stat(p, cluster.Ctx(0, 1), "/ckpt/"+e.Name)
			if err != nil {
				panic(err)
			}
			total += attr.Size
		}
		fmt.Printf("%s: %d checkpoint files, %d MiB total, mean round %.1f ms\n",
			stack, len(ents), total>>20, perRound.MeanMs())
	})
	tb.Run()
	_ = vfs.TypeRegular
	return perRound
}
