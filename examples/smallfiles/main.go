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
	"sort"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/stats"
	"cofs/internal/trace"
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
func buildTarget(mode string) (trace.Target, func() error) {
	cfg := params.Default()
	if mode == "cofs + client cache" {
		cfg.COFS.AttrLease = 30 * time.Second
		cfg.COFS.AttrCacheEntries = 16384
	}
	tb := cluster.New(11, nodes, cfg)
	if mode == "gpfs" {
		return trace.Target{Env: tb.Env, Mounts: tb.Mounts},
			tb.FS.Tokens.CheckInvariants
	}
	d := core.Deploy(tb, nil)
	return trace.Target{Env: tb.Env, Mounts: d.Mounts},
		d.Service.CheckInvariants
}

// rereadMBps writes each node's files once, then measures aggregate
// bandwidth of repeated open+read+close passes over the node's own
// (cache-hot) files — the Table I small-separate-files cell.
func rereadMBps(t trace.Target) float64 {
	var write, reread []trace.Op
	for node := 0; node < nodes; node++ {
		for i := 0; i < files; i++ {
			write = append(write, trace.Op{Node: node, PID: 1, Kind: trace.WriteFile, Path: name(node, i), Bytes: fileSize, Mode: 0644})
		}
		for pass := 0; pass < passes; pass++ {
			for i := 0; i < files; i++ {
				reread = append(reread, trace.Op{Node: node, PID: 1, Kind: trace.ReadFile, Path: name(node, i), Bytes: fileSize})
			}
		}
	}
	run(t, trace.Phase{Ops: []trace.Op{{PID: 1, Kind: trace.Mkdir, Path: "/small", Mode: 0777}}}, trace.Phase{Ops: write})
	// The clock stops once everything the reads set off has drained,
	// not at the last read.
	start := t.Env.Now()
	run(t, trace.Phase{Ops: reread})
	return stats.MBps(int64(nodes*files*passes)*fileSize, t.Env.Now()-start)
}

// sweepMsPerEntry has the last node (which wrote none of the files)
// run `ls -l` over the shared directory: readdir + stat per entry, in
// listing (name) order.
func sweepMsPerEntry(t trace.Target) float64 {
	var names []string
	for node := 0; node < nodes; node++ {
		for i := 0; i < files; i++ {
			names = append(names, name(node, i))
		}
	}
	sort.Strings(names)
	sweep := []trace.Op{{Node: nodes - 1, PID: 99, Kind: trace.Readdir, Path: "/small"}}
	for _, n := range names {
		sweep = append(sweep, trace.Op{Node: nodes - 1, PID: 99, Kind: trace.Stat, Path: n})
	}
	res := run(t, trace.Phase{Name: "sweep", Ops: sweep})
	return float64(res.PhaseTime["sweep"]/time.Duration(len(names))) / 1e6
}

// run drives the target through the phases; a failed operation means
// the example is broken.
func run(t trace.Target, phases ...trace.Phase) *trace.Result {
	res, err := trace.Run(t, phases, nil)
	if err != nil {
		panic(err)
	}
	return res
}

func name(node, i int) string {
	return fmt.Sprintf("/small/f-%d-%d", node, i)
}
