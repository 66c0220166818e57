package bench_test

import (
	"testing"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// cofsTargetD is cofsTarget, additionally returning the deployment for
// post-run service checks.
func cofsTargetD(nodes int) (trace.Target, *cluster.Testbed, *core.Deployment) {
	tb := cluster.New(1, nodes, params.Default())
	d := core.Deploy(tb, nil)
	return trace.Target{Env: tb.Env, Mounts: d.Mounts}, tb, d
}

func TestMDTestCountsUnique(t *testing.T) {
	target, tb := gpfsTarget(2)
	res := run(t, target, trace.MDTest(trace.MDTestConfig{
		Nodes: 2, Depth: 2, Branch: 3, FilesPerRank: 18,
	}))
	// Tree: 1 root + 3 + 9 = 13 dirs per rank, two private trees.
	if got := res.PhaseOps["tree-create"]; got != 26 {
		t.Errorf("tree-create ops = %d, want 26", got)
	}
	if got := res.PhaseOps["file-create"]; got != 36 {
		t.Errorf("file-create ops = %d, want 36", got)
	}
	if got := res.PhaseOps["file-stat"]; got != 36 {
		t.Errorf("file-stat ops = %d, want 36", got)
	}
	if got := res.PhaseOps["file-remove"]; got != 36 {
		t.Errorf("file-remove ops = %d, want 36", got)
	}
	if got := res.PhaseOps["tree-remove"]; got != 26 {
		t.Errorf("tree-remove ops = %d, want 26", got)
	}
	for _, ph := range trace.MDTestPhases {
		if res.Rate(ph) <= 0 {
			t.Errorf("phase %s has rate %.1f, want > 0", ph, res.Rate(ph))
		}
		if res.PerPhase[ph].N() != res.PhaseOps[ph] {
			t.Errorf("phase %s: %d latency samples for %d ops", ph, res.PerPhase[ph].N(), res.PhaseOps[ph])
		}
	}
	// Everything was removed again: only the work dir root remains.
	tb.Env.Spawn("verify", func(p *sim.Proc) {
		ents, err := target.Mounts[0].Readdir(p, cluster.Ctx(0, 1), "/mdtest")
		if err != nil {
			t.Errorf("readdir: %v", err)
			return
		}
		if len(ents) != 0 {
			t.Errorf("leftover entries after mdtest: %v", ents)
		}
	})
	tb.Run()
	if err := tb.FS.Tokens.CheckInvariants(); err != nil {
		t.Errorf("token invariants: %v", err)
	}
}

func TestMDTestSharedTree(t *testing.T) {
	target, _ := gpfsTarget(4)
	res := run(t, target, trace.MDTest(trace.MDTestConfig{
		Nodes: 4, Depth: 1, Branch: 4, FilesPerRank: 16,
		Shared: true, StatShift: true,
	}))
	// One shared tree: 1 + 4 = 5 dirs total.
	if got := res.PhaseOps["tree-create"]; got != 5 {
		t.Errorf("tree-create ops = %d, want 5", got)
	}
	if got := res.PhaseOps["file-create"]; got != 64 {
		t.Errorf("file-create ops = %d, want 64", got)
	}
}

func TestMDTestDepthZero(t *testing.T) {
	target, _ := gpfsTarget(1)
	res := run(t, target, trace.MDTest(trace.MDTestConfig{
		Nodes: 1, Depth: 0, Branch: 4, FilesPerRank: 8,
	}))
	if got := res.PhaseOps["tree-create"]; got != 1 {
		t.Errorf("tree-create ops = %d, want 1 (just the rank root)", got)
	}
	if got := res.PhaseOps["file-create"]; got != 8 {
		t.Errorf("file-create ops = %d, want 8", got)
	}
}

// TestMDTestCOFSInvariants runs mdtest over COFS and validates the
// metadata service afterwards: a full create/stat/remove tree cycle
// must leave the namespace referentially intact with no leaked
// mappings.
func TestMDTestCOFSInvariants(t *testing.T) {
	target, _, d := cofsTargetD(2)
	res := run(t, target, trace.MDTest(trace.MDTestConfig{
		Nodes: 2, Depth: 1, Branch: 4, FilesPerRank: 32,
		Shared: true, StatShift: true,
	}))
	if got := res.PhaseOps["file-create"]; got != 64 {
		t.Errorf("file-create ops = %d, want 64", got)
	}
	if err := d.Service.CheckInvariants(); err != nil {
		t.Errorf("service invariants: %v", err)
	}
	// All files removed: no mappings must remain.
	n := 0
	d.Service.EachMapping(func(vfs.Ino, string) { n++ })
	if n != 0 {
		t.Errorf("%d leaked mappings after full remove cycle", n)
	}
}

// TestMDTestCrossNodeStatsFavorCOFS pins the benchmark's headline
// comparison: with a shared tree and shifted stats (guaranteed
// cross-node attribute reads), COFS's decoupled metadata service must
// beat the packed-inode false sharing of the bare stack.
func TestMDTestCrossNodeStatsFavorCOFS(t *testing.T) {
	cfg := trace.MDTestConfig{
		Nodes: 4, Depth: 1, Branch: 4, FilesPerRank: 64,
		Shared: true, StatShift: true,
	}
	gt, _ := gpfsTarget(4)
	gres := run(t, gt, trace.MDTest(cfg))
	ct, _ := cofsTarget(4)
	cres := run(t, ct, trace.MDTest(cfg))
	g := gres.MeanMs("file-stat")
	c := cres.MeanMs("file-stat")
	if c >= g {
		t.Errorf("COFS shifted stat (%.3f ms) not cheaper than GPFS (%.3f ms)", c, g)
	}
}
