package experiments

import (
	"fmt"
	"time"

	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/stats"
	"cofs/internal/trace"
)

// This file holds the parameter-sensitivity ablations for the design
// choices DESIGN.md calls out: the 512-entry underlying directory cap
// (section III-B), the packed-inode false-sharing mechanism the paper
// blames for cross-node stat conflicts (section II-B), the network
// round-trip dependence of both stacks, and the metadata service's
// soft-real-time log flushing (section III-C).

// AblationDirCap sweeps COFS's MaxEntriesPerDir on a create workload
// large enough (2048 files/node) that the cap actually splits
// directories. Randomization is disabled so every (node, pid) stream
// has exactly one bucket and the cap is the only thing bounding
// underlying directory size. Only create is swept: COFS serves stat,
// utime and open from its metadata service without touching the
// underlying file system, so they cannot depend on the cap by
// construction. The paper fixed the cap at 512 to stay inside GPFS's
// optimized region (Fig. 1 shows create leaving the fast region at
// ~512): larger caps let the underlying directory outgrow the
// create-delegation window and every create past it becomes a server
// round trip, while tiny caps only add spill overhead.
func AblationDirCap(seed int64) Figure {
	t := Table{X: "dir cap (0->inf)", Cols: []Col{{Label: "create (ms)"}, {Label: "bucket spills"}}}
	for _, cap := range []int{64, 128, 256, 512, 1024, 4096, 0} { // 0 = unbounded
		// Placement is pinned to one bucket per node so the cap is the
		// only variable: the default policy's hash collisions would add
		// cross-node noise to the sweep.
		cfg := params.Default()
		cfg.COFS.MaxEntriesPerDir = cap
		cfg.COFS.RandomSubdirs = 1
		ct, d := cofsTarget(seed, 4, cfg, core.NodeHashPlacement{Fanout: 64})
		ms := meanMs(ct, 4, 1, 2048, "create")
		var spills int64
		for _, fs := range d.FSs {
			spills += fs.Stats.BucketSpills
		}
		x := fmt.Sprint(cap)
		if cap == 0 {
			x = fmt.Sprintf("%.4g", float64(1<<20)) // "unbounded" as a large x
		}
		t.Rows = append(t.Rows, Row{X: x, Y: []float64{ms, float64(spills)}})
	}
	return Figure{
		Title:  "Ablation: underlying directory cap (4 nodes, 2048 files/node, no randomization)",
		Tables: []Table{t},
		Notes:  []string{"(x = 1048576 denotes an unbounded directory)"},
	}
}

// AblationFalseSharing sweeps the GPFS-like stack's InodesPerBlock on
// the parallel stat workload of Fig. 2 (4 nodes, few files per node —
// the regime where the paper observes that *fewer* files mean *more*
// conflicts). Packing has two opposing effects the paper describes in
// one breath: a fetched block carries several entries' attributes
// (bandwidth amortization, which is why the serial column *improves*
// with packing) and cross-node accesses to entries that share a block
// conflict (false sharing). The parallel/serial penalty ratio isolates
// the second effect: realistic packing makes the parallel case pay
// several times what one inode per lock unit costs. This demonstrates
// mechanism (3) of DESIGN.md section 5 experimentally.
func AblationFalseSharing(seed int64) Figure {
	t := Table{X: "inodes per block", Cols: []Col{{Label: "1-node stat (ms)"}, {Label: "4-node stat (ms)"}, {Label: "penalty ratio"}}}
	for _, pack := range []int{1, 4, 8, 16, 32, 64, 128} {
		cfg := params.Default()
		cfg.PFS.InodesPerBlock = pack
		serial := meanMs(target(seed, "gpfs", 1, cfg), 1, 1, 128, "stat")
		par := meanMs(target(seed, "gpfs", 4, cfg), 4, 1, 128, "stat")
		t.Rows = append(t.Rows, Row{X: fmt.Sprint(pack), Y: []float64{serial, par, par / serial}})
	}
	return Figure{
		Title:  "Ablation: packed-inode false sharing (bare GPFS-like, 128 files/node)",
		Tables: []Table{t},
	}
}

// AblationNetwork sweeps the per-hop network latency for both stacks on
// the parallel create workload. GPFS's token ping-pong multiplies every
// added microsecond across revoke/grant chains, while COFS pays a flat
// two round trips (service + local create), so the gap widens with
// latency — the effect that made the paper's 64-node hierarchical
// (higher-latency) cluster *more* favourable to COFS, not less.
func AblationNetwork(seed int64) Figure {
	t := Table{X: "hop latency (us)", Cols: []Col{{Label: "gpfs create (ms)"}, {Label: "cofs create (ms)"}}}
	for _, us := range []int{25, 55, 110, 220} {
		cfg := params.Default()
		cfg.Network.HopLatency = time.Duration(us) * time.Microsecond
		g := meanMs(target(seed, "gpfs", 4, cfg), 4, 1, 512, "create")
		c := meanMs(target(seed, "cofs", 4, cfg), 4, 1, 512, "create")
		t.Rows = append(t.Rows, Row{X: fmt.Sprint(us), Y: []float64{g, c}})
	}
	return Figure{
		Title:  "Ablation: network hop latency vs create time (4 nodes, 512 files/node)",
		Tables: []Table{t},
	}
}

// AblationFlush sweeps the metadata service's log flush policy: 0 forces
// the WAL to disk inside every commit (full durability, like running
// Mnesia with sync transactions), larger intervals batch flushes in the
// background (the soft-real-time trade the paper's prototype makes; a
// crash loses at most one interval of commits — see examples/failover).
func AblationFlush(seed int64) Figure {
	t := Table{X: "flush policy", Cols: []Col{{Label: "create (ms)"}}}
	for _, iv := range []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		name := "sync (flush per commit)"
		if iv > 0 {
			name = fmt.Sprintf("async, %v interval", iv)
		}
		cfg := params.Default()
		cfg.COFS.LogFlushInterval = iv
		t.Rows = append(t.Rows, Row{X: name, Y: []float64{meanMs(target(seed, "cofs", 4, cfg), 4, 1, 512, "create")}})
	}
	return Figure{
		Title:  "Ablation: service log flush policy vs create time (4 nodes, 512 files/node)",
		Tables: []Table{t},
	}
}

// ClientCacheStorm is the stat/utime storm behind the client-cache
// ablation and BenchmarkMetadataCache: 4 nodes x 2 procs repeatedly
// `ls -l` a shared 256-file directory (readdir + per-file stat, three
// passes) with a utime sweep over each rank's own slice between passes,
// so lease revocations actually happen and mutations keep landing on
// the metadata service the whole time. This is the paper's section IV-B
// trigger — repeated directory traversals over cache-warm files — where
// GPFS serves from its client cache and the measured COFS prototype
// paid a round trip per stat.
//
// It returns the full stat latency distribution (mean, count and
// percentiles) and the deployment's per-layer counters plus
// storm.traversal-us: the virtual microseconds of every `ls -l` pass —
// listing and sweep, summed over ranks and passes — because a listing
// that fetches attributes moves cost between the listing, the first
// stat and the rest of the sweep, and only the whole pass says whether
// the traversal got cheaper.
func ClientCacheStorm(seed int64, cfg params.Config) (*stats.Summary, *stats.Counters) {
	const (
		nodes = 4
		procs = 2 // per node: concurrent RPCs share the per-shard channel
		files = 256
		quota = files / (nodes * procs)
	)
	t, d := cofsTarget(seed, nodes, cfg, nil)
	setup := []trace.Op{{PID: 1, Kind: trace.Mkdir, Path: "/data", Mode: 0777}}
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("/data/f%04d", i)
		setup = append(setup, trace.Op{PID: 1, Kind: trace.Create, Path: names[i], Mode: 0644})
	}
	var storm []trace.Op
	for rank := 0; rank < nodes*procs; rank++ {
		node, pid := rank/procs, 1+rank%procs
		for range 3 {
			storm = append(storm, lsL(node, pid, "/data", names)...)
			// Touch this rank's slice: cross-node revocation load (and
			// a live stale window for the other ranks' stats over these
			// rows).
			for _, n := range names[rank*quota : (rank+1)*quota] {
				storm = append(storm, trace.Op{Node: node, PID: pid, Kind: trace.Utime, Path: n})
			}
		}
	}
	res := run(t, []trace.Phase{{Ops: setup}, {Name: "storm", Ops: storm}})
	// A pass is its listing and its stats back to back, so the passes
	// sum to the listings' and the stats' latencies.
	stat := res.PerKind[trace.Stat]
	c := d.Counters()
	c.Add("storm.traversal-us", int64((res.PerKind[trace.Readdir].Sum()+stat.Sum())/time.Microsecond))
	return stat, c
}

// AblationClientCache runs the stat/utime storm without and with the
// lease cache of the IV-B extension, at 1 and 4 metadata shards. The
// lease rows must beat the baseline on stat while staying coherent (the
// conformance battery pins correctness; this table pins the win).
func AblationClientCache(seed int64) Figure {
	type row struct {
		name  string
		tweak func(*params.Config)
	}
	rows := []row{
		{"paper (no cache)", func(c *params.Config) {}},
		{"lease cache 30s (coherent)", func(c *params.Config) { c.COFS.AttrLease = 30 * time.Second }},
	}
	f := Figure{
		Title: "Ablation: client cache & RPC transport (4 nodes, ls -l storm over 256 shared files)",
	}
	for _, shards := range []int{1, 4} {
		t := Table{
			Name:    fmt.Sprintf("%d shards", shards),
			Heading: fmt.Sprintf("-- %d metadata shard(s) --", shards),
			X:       "configuration",
			Cols: []Col{{Label: "stat (ms)"}, {Label: "rpcs", Fmt: "%.0f"}, {Label: "round trips", Fmt: "%.0f"},
				{Label: "cache hits", Fmt: "%.0f"}, {Label: "recalls", Fmt: "%.0f"}},
		}
		for _, r := range rows {
			cfg := params.Default()
			cfg.COFS.MetadataShards = shards
			r.tweak(&cfg)
			sum, c := ClientCacheStorm(seed, cfg)
			t.Rows = append(t.Rows, Row{X: r.name, Y: []float64{sum.MeanMs(),
				float64(c.Get("rpc.client.calls")),
				float64(c.Get("rpc.client.roundtrips")),
				float64(c.Get("cache.attr-hits") + c.Get("cache.dentry-hits")),
				float64(c.Get("mds.lease-revocations"))}})
		}
		f.Tables = append(f.Tables, t)
	}
	return f
}

// MDTestExp runs the mdtest-style tree benchmark (internal/trace) on
// both stacks in the contended configuration: one shared tree, shifted
// stats (rank r stats rank r+1's files, guaranteeing cross-node
// attribute reads). It extends the paper's flat-shared-directory
// evaluation to tree-shaped namespaces.
func MDTestExp(seed int64) Figure {
	phases := trace.MDTest(trace.MDTestConfig{Nodes: 4, Depth: 2, Branch: 4, FilesPerRank: 256, Shared: true, StatShift: true})
	g := run(target(seed, "gpfs", 4, params.Default()), phases)
	c := run(target(seed, "cofs", 4, params.Default()), phases)
	t := Table{X: "phase", Cols: []Col{{"gpfs ops/s", "%.1f"}, {"cofs ops/s", "%.1f"}, {"speedup", "%.1fx"}}}
	for _, ph := range trace.MDTestPhases {
		t.Rows = append(t.Rows, Row{X: ph, Y: []float64{g.Rate(ph), c.Rate(ph), c.Rate(ph) / g.Rate(ph)}})
	}
	return Figure{
		Title:  "Extension: mdtest (shared tree, 4 nodes, depth 2 x branch 4, 256 files/rank, shifted stats)",
		Tables: []Table{t},
	}
}
