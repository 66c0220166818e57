package experiments

import (
	"fmt"
	"time"

	"cofs/internal/params"
	"cofs/internal/stats"
	"cofs/internal/trace"
)

// AttrCache evaluates the paper's section IV-B future-work suggestion:
// adding aggressive client-side caching to COFS to close the Table I
// small-separate-file gap. The paper pins the gap on cases where "the
// total benchmark times ... are about a few milliseconds, which is
// comparable to the extra round-trips needed by COFS to access its
// metadata server": a node repeatedly reopening and reading its own
// small, cache-hot files. That workload is run on GPFS, on the measured
// COFS prototype, and on COFS with the client attribute/mapping cache.
func AttrCache(seed int64) Figure {
	g := smallReopenMBps(seed, "gpfs", 0)
	off := smallReopenMBps(seed, "cofs", 0)
	on := smallReopenMBps(seed, "cofs", 30*time.Second)
	return Figure{
		Title: "Extension (paper §IV-B): client attr caching vs the Table I small-file cell",
		Tables: []Table{{X: "configuration", Cols: []Col{{"small-file re-read (MB/s)", "%.1f"}}, Rows: []Row{
			{X: "gpfs (page-pool cached)", Y: []float64{g}},
			{X: "cofs, no attr cache (paper)", Y: []float64{off}},
			{X: "cofs + client attr cache", Y: []float64{on}},
		}}},
		Notes: []string{fmt.Sprintf("gap to gpfs: %.1fx -> %.1fx", g/off, g/on)},
	}
}

// smallReopenMBps has each of 4 nodes write 64 files of 256 KiB, then
// repeatedly open+read+close them (3 passes) under the given client
// cache lease term; returns aggregate re-read bandwidth.
func smallReopenMBps(seed int64, stack string, lease time.Duration) float64 {
	const (
		nodes    = 4
		files    = 64
		fileSize = 256 << 10
		passes   = 3
	)
	cfg := params.Default()
	cfg.COFS.AttrLease = lease
	t := target(seed, stack, nodes, cfg)
	var write, reread []trace.Op
	for node := 0; node < nodes; node++ {
		for i := 0; i < files; i++ {
			write = append(write, trace.Op{Node: node, PID: 1, Kind: trace.WriteFile, Path: fmt.Sprintf("/small/f-%d-%d", node, i), Bytes: fileSize, Mode: 0644})
		}
		for range passes {
			for _, op := range write[len(write)-files:] {
				reread = append(reread, trace.Op{Node: node, PID: 1, Kind: trace.ReadFile, Path: op.Path, Bytes: fileSize})
			}
		}
	}
	run(t, []trace.Phase{{Ops: []trace.Op{{PID: 1, Kind: trace.Mkdir, Path: "/small", Mode: 0777}}}, {Ops: write}})
	// Timed to the end of the run, not of the last read: the events the
	// reads set off drain inside the measured time.
	start := t.Env.Now()
	run(t, []trace.Phase{{Ops: reread}})
	return stats.MBps(int64(nodes*files*passes)*fileSize, t.Env.Now()-start)
}

// Traversal reproduces the other trigger the paper's section II names
// alongside parallel creation: "large directory traversals" — an `ls -l`
// (readdir + stat of every entry) over a big shared directory, run from
// a node that did not create the files, on GPFS vs COFS. It is run
// twice back to back: the cold pass is the first time the node sees the
// directory, the second what every repeat costs.
func Traversal(seed int64) Figure {
	sizes := []int{512, 2048, 8192}
	stacks := []string{"gpfs", "cofs", "cofs+cache"}
	t := Table{X: "dir entries"}
	for _, stack := range stacks {
		t.Cols = append(t.Cols, Col{Label: stack + " cold"}, Col{Label: stack + " 2nd"})
	}
	for _, size := range sizes {
		r := Row{X: fmt.Sprint(size)}
		for _, stack := range stacks {
			c, a := traversalMs(seed, stack, size)
			r.Y = append(r.Y, c, a)
		}
		t.Rows = append(t.Rows, r)
	}
	return Figure{
		Title:  "Extension (paper §II motivation): large directory traversal (ls -l), ms/entry",
		Tables: []Table{t},
		Notes: []string{
			"(cofs+cache: listings are names-only until a process stats the first two",
			" entries it just listed; the cold pass pays that listing and the first",
			" stat, then one READDIRPLUS from inside the second stat prefills the client",
			" attribute cache and the sweep is served locally; the second pass lists",
			" with attributes straight away — section IV-B extension, docs/rpc.md)",
		},
	}
}

// traversalMs creates size files from node 0, then has node 1 list the
// directory and stat every entry, twice; returns the mean virtual ms per
// entry of the cold pass and of the second.
func traversalMs(seed int64, stack string, size int) (cold, again float64) {
	cfg := params.Default()
	if stack == "cofs+cache" {
		stack = "cofs"
		cfg.COFS.AttrLease = 30 * time.Second
		cfg.COFS.AttrCacheEntries = 16384
	}
	t := target(seed, stack, 2, cfg)
	fill := []trace.Op{{PID: 1, Kind: trace.Mkdir, Path: "/big", Mode: 0777}}
	names := make([]string, size)
	for i := range names {
		names[i] = fmt.Sprintf("/big/f%06d", i)
		fill = append(fill, trace.Op{PID: 1, Kind: trace.Create, Path: names[i], Mode: 0644})
	}
	ls := lsL(1, 1, "/big", names)
	res := run(t, []trace.Phase{{Ops: fill}, {Name: "cold", Ops: ls}, {Name: "again", Ops: ls}})
	perEntry := func(pass string) float64 {
		return float64(res.PhaseTime[pass]/time.Duration(size)) / 1e6
	}
	return perEntry("cold"), perEntry("again")
}

// lsL is one `ls -l` of dir by stream (node, pid): the listing, then a
// stat of every entry in listing (name) order. names are the entries'
// paths, sorted.
func lsL(node, pid int, dir string, names []string) []trace.Op {
	ops := []trace.Op{{Node: node, PID: pid, Kind: trace.Readdir, Path: dir}}
	for _, n := range names {
		ops = append(ops, trace.Op{Node: node, PID: pid, Kind: trace.Stat, Path: n})
	}
	return ops
}

// BatchJobs replays the batch-jobs trace, the paper's second motivating
// workload (many jobs writing small output files at once), on both
// stacks and reports the mean job-output write latency.
func BatchJobs(seed int64) Figure {
	t := Table{X: "stack", Cols: []Col{{Label: "output write (ms)"}}}
	for _, stack := range []string{"gpfs", "cofs"} {
		tr := trace.GenBatchJobs(trace.BatchConfig{
			Nodes: 4, Jobs: 64, FilesPerJob: 4, BytesPerFile: 4 << 10,
			Stagger: 20 * time.Millisecond,
		})
		res, err := trace.Replay(target(seed, stack, 4, params.Default()), tr, trace.ReplayOptions{Timed: true})
		if err != nil || res.Errors > 0 {
			panic(fmt.Sprintf("replay: %v (errors %d, first %v)", err, res.Errors, res.FirstErr))
		}
		t.Rows = append(t.Rows, Row{X: stack, Y: []float64{res.PerKind[trace.WriteFile].MeanMs()}})
	}
	return Figure{
		Title:  "Extension (paper §II motivation): batch-jobs trace replay (4 nodes, 64 jobs x 4 files of 4 KiB)",
		Tables: []Table{t},
	}
}
