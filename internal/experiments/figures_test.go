package experiments

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The shape tests below pin the claims each figure exists to show, on
// the figure's full sweep at seed 1. Every driver runs in exactly one of
// them, all in parallel; BenchmarkPaperFigures gates the exact values.

// figure runs the named driver at seed 1 and checks what every figure
// owes its bench record: each numeric cell flattens to its own finite
// point, and every row fills every column.
func figure(t *testing.T, name string) map[string]float64 {
	t.Helper()
	t.Parallel()
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	i := slices.IndexFunc(All, func(d Driver) bool { return d.Name == name })
	if i < 0 {
		t.Fatalf("no driver %q in All", name)
	}
	f := All[i].Run(1)
	cells := 0
	for _, tb := range f.Tables {
		for _, r := range tb.Rows {
			if len(r.Y)+len(r.Text) != len(tb.Cols) {
				t.Errorf("%s: row %q has %d cells for %d columns", tb.Name, r.X, len(r.Y)+len(r.Text), len(tb.Cols))
			}
			cells += len(r.Y)
		}
	}
	p := f.Points()
	if len(p) != cells || cells == 0 {
		t.Fatalf("%d points for %d numeric cells: keys collide or the figure is empty", len(p), cells)
	}
	for k, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("point %q = %v", k, v)
		}
	}
	return p
}

// at returns one point, failing the test when the figure lacks it.
func at(t *testing.T, p map[string]float64, key string) float64 {
	t.Helper()
	v, ok := p[key]
	if !ok {
		t.Fatalf("no point %q", key)
	}
	return v
}

// TestFig1Knee: single-process create is flat up to 512 entries, then
// leaves GPFS's optimized region between 512 and 768.
func TestFig1Knee(t *testing.T) {
	p := figure(t, "fig1")
	var flat []float64
	for _, n := range []int{64, 128, 256, 512} {
		flat = append(flat, at(t, p, fmt.Sprintf("create/1 proc (ms)@%d", n)))
	}
	if lo, hi := slices.Min(flat), slices.Max(flat); hi > lo*1.10 {
		t.Errorf("create 64..512 not flat: %.3f..%.3f ms", lo, hi)
	}
	if k, f := at(t, p, "create/1 proc (ms)@768"), flat[3]; k <= 2*f {
		t.Errorf("create at 768 %.3f ms not past 2x the 512-entry %.3f ms", k, f)
	}
}

// TestFig2MoreNodesSlowerCreates: shared-directory creates on bare GPFS
// cost more at 8 nodes than at 4, at every directory size.
func TestFig2MoreNodesSlowerCreates(t *testing.T) {
	p := figure(t, "fig2")
	for _, total := range []int{1024, 4096, 16384} {
		key := fmt.Sprintf("nodes/%d files (ms)@create", total)
		if g4, g8 := at(t, p, "4 "+key), at(t, p, "8 "+key); g8 <= g4 {
			t.Errorf("%d files: 8-node create %.3f ms not above 4-node %.3f ms", total, g8, g4)
		}
	}
}

// TestFig4GapAtLeast4xAndGrowsWithNodes: COFS creates at least 4x faster
// than GPFS at every point, and the gap is wider at 8 nodes than at 4.
func TestFig4GapAtLeast4xAndGrowsWithNodes(t *testing.T) {
	p := figure(t, "fig4")
	for _, per := range Fig4Points {
		ratio := func(nodes int) float64 {
			return at(t, p, fmt.Sprintf("gpfs %dn (ms)@%d", nodes, per)) / at(t, p, fmt.Sprintf("cofs %dn (ms)@%d", nodes, per))
		}
		r4, r8 := ratio(4), ratio(8)
		if r4 < 4 || r8 < 4 {
			t.Errorf("%d files/node: gpfs/cofs %.2f (4n), %.2f (8n), want >= 4", per, r4, r8)
		}
		if r8 <= r4 {
			t.Errorf("%d files/node: 8-node gap %.2f not above 4-node %.2f", per, r8, r4)
		}
	}
}

// TestFig5COFSStatFlat: COFS stat stays within 5% of its mean across the
// sweep, and GPFS is at least 7x slower everywhere.
func TestFig5COFSStatFlat(t *testing.T) {
	p := figure(t, "fig5")
	for _, nodes := range []int{4, 8} {
		var cofs []float64
		for _, per := range Fig4Points {
			c := at(t, p, fmt.Sprintf("cofs %dn (ms)@%d", nodes, per))
			if g := at(t, p, fmt.Sprintf("gpfs %dn (ms)@%d", nodes, per)); g < 7*c {
				t.Errorf("%dn, %d files/node: gpfs %.3f ms not 7x cofs %.3f ms", nodes, per, g, c)
			}
			cofs = append(cofs, c)
		}
		var mean float64
		for _, c := range cofs {
			mean += c / float64(len(cofs))
		}
		if lo, hi := slices.Min(cofs), slices.Max(cofs); lo < 0.95*mean || hi > 1.05*mean {
			t.Errorf("%dn: cofs stat %.3f..%.3f ms strays over 5%% from its mean %.3f", nodes, lo, hi, mean)
		}
	}
}

// TestFig6COFSFasterOnEveryOp: at 64 nodes COFS beats GPFS by at least
// 2.5x on all four operations.
func TestFig6COFSFasterOnEveryOp(t *testing.T) {
	p := figure(t, "fig6")
	for _, op := range []string{"create", "stat", "utime", "open"} {
		if g, c := at(t, p, "gpfs (ms)@"+op), at(t, p, "cofs (ms)@"+op); g < 2.5*c {
			t.Errorf("%s: gpfs %.3f ms not 2.5x cofs %.3f ms", op, g, c)
		}
	}
}

// TestTable1WritesComparableReadGapBounded: every write cell is within
// 15% ("comparable"), and no read gap exceeds 3.5x.
func TestTable1WritesComparableReadGapBounded(t *testing.T) {
	p := figure(t, "table1")
	gap := func(a, b float64) float64 { return max(a/b, b/a) }
	for _, tc := range []string{"separate files", "separate files (random)", "single shared file", "single shared file (random)"} {
		for _, row := range []string{"1 256MB", "1 1GB", "1 4GB", "4 256MB", "4 1GB", "4 4GB", "8 256MB", "8 1GB", "8 4GB"} {
			cell := func(col string) float64 { return at(t, p, tc+"/"+col+"@"+row) }
			if g := gap(cell("gpfs wr"), cell("cofs wr")); g > 1.15 {
				t.Errorf("%s, %s: write gap %.3f not comparable", tc, row, g)
			}
			if g := gap(cell("gpfs rd"), cell("cofs rd")); g > 3.5 {
				t.Errorf("%s, %s: read gap %.3f over 3.5x", tc, row, g)
			}
		}
	}
}

// TestPlacementFlatIsWorst: without virtualization (one flat underlying
// directory) creates cost at least 4x the paper's placement policy.
func TestPlacementFlatIsWorst(t *testing.T) {
	p := figure(t, "ablation")
	paper := at(t, p, "create (ms)@paper: hash(node,parent,pid)+rand+cap")
	if flat := at(t, p, "create (ms)@flat (no virtualization benefit)"); flat < 4*paper {
		t.Errorf("flat create %.3f ms not 4x the paper policy's %.3f ms", flat, paper)
	}
}

// TestAttrCacheNarrowsGap: the client attribute cache speeds COFS's
// small-file re-reads without reaching page-pool-cached GPFS.
func TestAttrCacheNarrowsGap(t *testing.T) {
	p := figure(t, "attrcache")
	const col = "small-file re-read (MB/s)@"
	g, off, on := at(t, p, col+"gpfs (page-pool cached)"), at(t, p, col+"cofs, no attr cache (paper)"), at(t, p, col+"cofs + client attr cache")
	if !(off < on && on < g) {
		t.Errorf("want cofs %.1f < cofs+cache %.1f < gpfs %.1f MB/s", off, on, g)
	}
}

// TestTraversalCacheServesRepeats: COFS lists cold faster than GPFS, and
// with the cache a repeat pass is cheaper than without it.
func TestTraversalCacheServesRepeats(t *testing.T) {
	p := figure(t, "traversal")
	for _, size := range []string{"512", "2048", "8192"} {
		if c, g := at(t, p, "cofs cold@"+size), at(t, p, "gpfs cold@"+size); c >= g {
			t.Errorf("%s entries: cofs cold %.3f ms/entry not below gpfs %.3f", size, c, g)
		}
		if cc, c := at(t, p, "cofs+cache 2nd@"+size), at(t, p, "cofs 2nd@"+size); cc >= c {
			t.Errorf("%s entries: cached repeat %.3f ms/entry not below uncached %.3f", size, cc, c)
		}
	}
}

// TestDirCapValidates512 pins the design-choice result behind the
// paper's 512-entry cap: an unbounded underlying directory is clearly
// worse for parallel creates than the capped configuration.
func TestDirCapValidates512(t *testing.T) {
	p := figure(t, "dircap")
	capped, unbounded := at(t, p, "create (ms)@512"), at(t, p, "create (ms)@1.049e+06")
	if unbounded <= capped*1.5 {
		t.Errorf("unbounded dir create %.3f ms not clearly worse than capped %.3f ms", unbounded, capped)
	}
}

// TestFalseSharingPackingPenalty: packing inodes into shared lock units
// at least doubles the parallel/serial stat penalty.
func TestFalseSharingPackingPenalty(t *testing.T) {
	p := figure(t, "falsesharing")
	if one, packed := at(t, p, "penalty ratio@1"), at(t, p, "penalty ratio@32"); packed < 2*one {
		t.Errorf("penalty ratio %.1f at 32 inodes/block not 2x the %.1f at 1", packed, one)
	}
}

// TestNetworkGapWidensWithLatency: every added microsecond of hop
// latency widens GPFS's create-time lead over COFS.
func TestNetworkGapWidensWithLatency(t *testing.T) {
	p := figure(t, "network")
	prev := 0.0
	for _, hop := range []string{"25", "55", "110", "220"} {
		gap := at(t, p, "gpfs create (ms)@"+hop) - at(t, p, "cofs create (ms)@"+hop)
		if gap <= prev {
			t.Errorf("%s us: gap %.3f ms not above %.3f at the lower latency", hop, gap, prev)
		}
		prev = gap
	}
}

// TestFlushSyncCostsMore pins the soft-real-time trade: forcing the WAL
// per commit costs creates more than background flushing.
func TestFlushSyncCostsMore(t *testing.T) {
	p := figure(t, "flush")
	if sync, async := at(t, p, "create (ms)@sync (flush per commit)"), at(t, p, "create (ms)@async, 100ms interval"); sync <= async {
		t.Errorf("sync commit create %.3f ms not more expensive than async %.3f ms", sync, async)
	}
}

// TestClientCacheLeasesCutStatTime: the coherent lease cache beats the
// uncached baseline on stat and pays for coherence with recalls.
func TestClientCacheLeasesCutStatTime(t *testing.T) {
	p := figure(t, "clientcache")
	for _, shards := range []string{"1 shards/", "4 shards/"} {
		base, lease := at(t, p, shards+"stat (ms)@paper (no cache)"), at(t, p, shards+"stat (ms)@lease cache 30s (coherent)")
		if lease >= base {
			t.Errorf("%s lease stat %.3f ms not below baseline %.3f", shards, lease, base)
		}
		if at(t, p, shards+"recalls@lease cache 30s (coherent)") == 0 {
			t.Errorf("%s lease cache issued no recalls", shards)
		}
	}
}

// TestMDTestCOFSFasterEveryPhase: on the shared tree COFS outruns GPFS
// in every mdtest phase.
func TestMDTestCOFSFasterEveryPhase(t *testing.T) {
	p := figure(t, "mdtest")
	for _, ph := range []string{"tree-create", "file-create", "file-stat", "file-remove", "tree-remove"} {
		if s := at(t, p, "speedup@"+ph); s <= 1 {
			t.Errorf("%s: speedup %.2f", ph, s)
		}
	}
}

// TestBatchJobsCOFSWritesFaster: COFS writes the jobs' small output
// files faster than GPFS.
func TestBatchJobsCOFSWritesFaster(t *testing.T) {
	p := figure(t, "batchjobs")
	if c, g := at(t, p, "output write (ms)@cofs"), at(t, p, "output write (ms)@gpfs"); c >= g {
		t.Errorf("cofs output write %.3f ms not below gpfs %.3f", c, g)
	}
}
