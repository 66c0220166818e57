// Smallfiles: the one workload where the paper concedes COFS loses —
// each node re-reading its own small files, which bare GPFS serves
// entirely from local caches while COFS pays metadata round trips
// (Table I, separate small files). Section IV-B sketches the fix:
// "adding the same aggressive caching and delegation techniques ... to
// the COFS framework". This example runs the workload three ways —
// bare GPFS, the measured COFS prototype, and COFS with the client
// attribute/mapping cache enabled — and then shows the same cache
// accelerating an `ls -l` sweep: once the first two entries of what was
// just listed are stat-ed in order, the second stat fetches the whole
// directory's attributes in one READDIRPLUS.
//
// Run with: go run ./examples/smallfiles
package main

import (
	"fmt"
	"time"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/vfs"
)

const (
	nodes    = 4
	files    = 48
	fileSize = 256 << 10
	passes   = 3
)

func main() {
	fmt.Printf("small-file farm: %d nodes x %d files x %dKiB, %d re-read passes\n\n",
		nodes, files, fileSize>>10, passes)

	type result struct {
		name    string
		rereads float64 // MB/s
		sweep   float64 // ms per entry
	}
	var results []result
	for _, mode := range []string{"gpfs", "cofs (paper prototype)", "cofs + client cache"} {
		t, check := buildTarget(mode)
		re := rereadMBps(t)
		sw := sweepMsPerEntry(t)
		results = append(results, result{mode, re, sw})
		if err := check(); err != nil {
			panic(err)
		}
	}

	fmt.Printf("%-24s%20s%22s\n", "stack", "re-read (MB/s)", "ls -l (ms/entry)")
	for _, r := range results {
		fmt.Printf("%-24s%20.1f%22.3f\n", r.name, r.rereads, r.sweep)
	}
	fmt.Printf("\nre-read gap to gpfs: %.1fx (prototype) -> %.1fx (with cache)\n",
		results[0].rereads/results[1].rereads, results[0].rereads/results[2].rereads)
	fmt.Printf("sweep speedup over gpfs: %.1fx (prototype) -> %.1fx (with cache)\n",
		results[0].sweep/results[1].sweep, results[0].sweep/results[2].sweep)
}

// buildTarget assembles one stack; the returned func checks invariants.
func buildTarget(mode string) (bench.Target, func() error) {
	cfg := params.Default()
	if mode == "cofs + client cache" {
		cfg.COFS.AttrLease = 30 * time.Second
		cfg.COFS.AttrCacheEntries = 16384
	}
	tb := cluster.New(11, nodes, cfg)
	if mode == "gpfs" {
		return bench.Target{Env: tb.Env, Mounts: tb.Mounts, Ctx: cluster.Ctx},
			tb.FS.Tokens.CheckInvariants
	}
	d := core.Deploy(tb, nil)
	return bench.Target{Env: tb.Env, Mounts: d.Mounts, Ctx: cluster.Ctx},
		d.Service.CheckInvariants
}

// rereadMBps writes each node's files once, then measures aggregate
// bandwidth of repeated open+read+close passes over the node's own
// (cache-hot) files — the Table I small-separate-files cell.
func rereadMBps(t bench.Target) float64 {
	t.Env.Spawn("mkdir", func(p *sim.Proc) {
		if err := t.Mounts[0].MkdirAll(p, t.Ctx(0, 1), "/small", 0777); err != nil {
			panic(err)
		}
	})
	t.Env.MustRun()
	for n := 0; n < nodes; n++ {
		node := n
		t.Env.Spawn("write", func(p *sim.Proc) {
			m := t.Mounts[node]
			ctx := t.Ctx(node, 1)
			for i := 0; i < files; i++ {
				f, err := m.Create(p, ctx, name(node, i), 0644)
				if err != nil {
					panic(err)
				}
				f.WriteAt(p, 0, fileSize)
				f.Close(p)
			}
		})
	}
	t.Env.MustRun()

	start := t.Env.Now()
	for n := 0; n < nodes; n++ {
		node := n
		t.Env.Spawn("reread", func(p *sim.Proc) {
			m := t.Mounts[node]
			ctx := t.Ctx(node, 1)
			for pass := 0; pass < passes; pass++ {
				for i := 0; i < files; i++ {
					f, err := m.Open(p, ctx, name(node, i), vfs.OpenRead)
					if err != nil {
						panic(err)
					}
					if _, err := f.ReadAt(p, 0, fileSize); err != nil {
						panic(err)
					}
					f.Close(p)
				}
			}
		})
	}
	t.Env.MustRun()
	return stats.MBps(int64(nodes*files*passes)*fileSize, t.Env.Now()-start)
}

// sweepMsPerEntry has the last node (which wrote none of the files)
// run `ls -l` over the shared directory: readdir + stat per entry.
func sweepMsPerEntry(t bench.Target) float64 {
	var per time.Duration
	t.Env.Spawn("sweep", func(p *sim.Proc) {
		m := t.Mounts[nodes-1]
		ctx := t.Ctx(nodes-1, 99)
		start := p.Now()
		ents, err := m.Readdir(p, ctx, "/small")
		if err != nil {
			panic(err)
		}
		for _, e := range ents {
			if _, err := m.Stat(p, ctx, "/small/"+e.Name); err != nil {
				panic(err)
			}
		}
		per = (p.Now() - start) / time.Duration(len(ents))
	})
	t.Env.MustRun()
	return float64(per) / 1e6
}

func name(node, i int) string {
	return fmt.Sprintf("/small/f-%d-%d", node, i)
}
