package core_test

import (
	"strings"
	"testing"
	"testing/quick"

	"cofs/internal/core"
	"cofs/internal/vfs"
)

// TestHashPlacementDeterministic: BucketDir is a pure function of its
// inputs — the property that makes deployments reproducible and lets
// cofsctl explain any mapping after the fact.
func TestHashPlacementDeterministic(t *testing.T) {
	hp := core.HashPlacement{Fanout: 64, RandomSubdirs: 8}
	f := func(node, pid uint8, parent uint16, rnd uint64) bool {
		a := core.BucketDir(hp, int(node), int(pid), vfs.Ino(parent), rnd)
		b := core.BucketDir(hp, int(node), int(pid), vfs.Ino(parent), rnd)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHashPlacementWithinInitDirs: every bucket the policy can produce
// was pre-created at install time — the invariant behind the gen-0
// optimization (no runtime mkdir for a stream's first creates).
func TestHashPlacementWithinInitDirs(t *testing.T) {
	for _, hp := range []core.HashPlacement{
		{Fanout: 64, RandomSubdirs: 8},
		{Fanout: 16, RandomSubdirs: 1},
		{Fanout: 1, RandomSubdirs: 4},
	} {
		init := make(map[string]bool)
		for _, d := range hp.InitDirs() {
			init[d] = true
		}
		f := func(node, pid uint8, parent uint16, rnd uint64) bool {
			return init[core.BucketDir(hp, int(node), int(pid), vfs.Ino(parent), rnd)]
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("fanout=%d rand=%d: %v", hp.Fanout, hp.RandomSubdirs, err)
		}
	}
}

// TestHashPlacementRandomOnlyMovesSubdir: the random factor must only
// select the randomization level, never the hash bucket (section III-B:
// the hash determines the path, randomization spreads below it).
func TestHashPlacementRandomOnlyMovesSubdir(t *testing.T) {
	hp := core.HashPlacement{Fanout: 64, RandomSubdirs: 8}
	f := func(node, pid uint8, parent uint16, r1, r2 uint64) bool {
		a := core.BucketDir(hp, int(node), int(pid), vfs.Ino(parent), r1)
		b := core.BucketDir(hp, int(node), int(pid), vfs.Ino(parent), r2)
		ai := strings.LastIndex(a, "/")
		bi := strings.LastIndex(b, "/")
		return a[:ai] == b[:bi]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHashPlacementSpreadsNodes: with enough fanout, distinct nodes
// creating in the same virtual directory land in distinct buckets for
// the overwhelming majority of pairs — the property that converts
// parallel shared-directory creates into conflict-free local ones.
func TestHashPlacementSpreadsNodes(t *testing.T) {
	hp := core.HashPlacement{Fanout: 64, RandomSubdirs: 1}
	const nodes = 64
	parent := vfs.Ino(7)
	buckets := make(map[string][]int)
	for n := 0; n < nodes; n++ {
		b := core.BucketDir(hp, n, 1, parent, 0)
		buckets[b] = append(buckets[b], n)
	}
	if len(buckets) < nodes/2 {
		t.Errorf("%d nodes hashed into only %d buckets (fanout %d)", nodes, len(buckets), hp.Fanout)
	}
	for b, ns := range buckets {
		if len(ns) > 5 {
			t.Errorf("bucket %s shared by %d nodes: %v", b, len(ns), ns)
		}
	}
}

// TestHashPlacementUniformish: over many (node, pid, parent) triples
// the bucket distribution must not collapse onto a few hash values.
func TestHashPlacementUniformish(t *testing.T) {
	hp := core.HashPlacement{Fanout: 64, RandomSubdirs: 1}
	counts := make(map[string]int)
	total := 0
	for node := 0; node < 16; node++ {
		for pid := 0; pid < 8; pid++ {
			for parent := vfs.Ino(1); parent <= 8; parent++ {
				counts[core.BucketDir(hp, node, pid, parent, 0)]++
				total++
			}
		}
	}
	expected := float64(total) / 64
	for b, n := range counts {
		if float64(n) > 4*expected {
			t.Errorf("bucket %s holds %d of %d samples (expected ~%.0f)", b, n, total, expected)
		}
	}
	if len(counts) < 48 {
		t.Errorf("only %d of 64 buckets used", len(counts))
	}
}

// TestNodeHashPlacementIgnoresPidAndParent pins the ablation policy's
// contract: only the node selects the bucket.
func TestNodeHashPlacementIgnoresPidAndParent(t *testing.T) {
	np := core.NodeHashPlacement{Fanout: 16}
	f := func(node uint8, pid1, pid2 uint8, par1, par2 uint16, r1, r2 uint64) bool {
		a := core.BucketDir(np, int(node), int(pid1), vfs.Ino(par1), r1)
		b := core.BucketDir(np, int(node), int(pid2), vfs.Ino(par2), r2)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFlatPlacementSingleBucket pins the baseline policy's contract.
func TestFlatPlacementSingleBucket(t *testing.T) {
	fp := core.FlatPlacement{}
	f := func(node, pid uint8, parent uint16, rnd uint64) bool {
		return core.BucketDir(fp, int(node), int(pid), vfs.Ino(parent), rnd) == "flat"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if len(fp.InitDirs()) != 1 {
		t.Error("flat placement must pre-create exactly one directory")
	}
}

// TestPlacementNamesDistinct: ablation reports key off Name(); the
// policies must be distinguishable.
func TestPlacementNamesDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []core.Placement{
		core.HashPlacement{Fanout: 64, RandomSubdirs: 8},
		core.NodeHashPlacement{Fanout: 64},
		core.FlatPlacement{},
	} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
		if names[p.Name()] {
			t.Errorf("duplicate policy name %q", p.Name())
		}
		names[p.Name()] = true
	}
}
