package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cofs/internal/vfs"
)

func TestHashPlacementDeterministic(t *testing.T) {
	f := func(node, pid uint8, parent uint32, rnd uint64) bool {
		hp := HashPlacement{Fanout: 64, RandomSubdirs: 8}
		a := BucketDir(hp, int(node), int(pid), vfs.Ino(parent), rnd)
		b := BucketDir(hp, int(node), int(pid), vfs.Ino(parent), rnd)
		return a == b && a != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashPlacementSeparatesNodes(t *testing.T) {
	// The paper's core requirement: different creating nodes land in
	// different underlying directories (with overwhelming probability),
	// so parallel creates never contend.
	hp := HashPlacement{Fanout: 64, RandomSubdirs: 1}
	buckets := map[string][]int{}
	for node := 0; node < 16; node++ {
		dir := BucketDir(hp, node, 1, 42, 0)
		buckets[dir] = append(buckets[dir], node)
	}
	if len(buckets) < 12 {
		t.Fatalf("16 nodes mapped to only %d buckets", len(buckets))
	}
}

func TestHashPlacementSeparatesProcesses(t *testing.T) {
	hp := HashPlacement{Fanout: 64, RandomSubdirs: 1}
	a := BucketDir(hp, 3, 1, 42, 0)
	b := BucketDir(hp, 3, 2, 42, 0)
	if a == b {
		t.Fatal("different pids mapped to the same bucket (hash ignores pid?)")
	}
	c := BucketDir(hp, 3, 1, 43, 0)
	if a == c {
		t.Fatal("different parents mapped to the same bucket (hash ignores parent?)")
	}
}

func TestRandomizationLevelSpreads(t *testing.T) {
	hp := HashPlacement{Fanout: 64, RandomSubdirs: 8}
	seen := map[string]bool{}
	for rnd := uint64(0); rnd < 64; rnd++ {
		seen[BucketDir(hp, 1, 1, 7, rnd)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("randomization produced %d subdirs, want 8", len(seen))
	}
	// All below the same hashed parent.
	var prefix string
	for d := range seen {
		p := d[:strings.LastIndex(d, "/")]
		if prefix == "" {
			prefix = p
		} else if p != prefix {
			t.Fatalf("random subdirs cross hash buckets: %q vs %q", p, prefix)
		}
	}
}

func TestFanoutBounds(t *testing.T) {
	f := func(node uint8, parent uint16, rnd uint64) bool {
		hp := HashPlacement{Fanout: 16, RandomSubdirs: 4}
		dir := BucketDir(hp, int(node), 1, vfs.Ino(parent), rnd)
		// Format: o/XXX/rNN with XXX < fanout.
		parts := strings.Split(dir, "/")
		if len(parts) != 3 || parts[0] != "o" {
			return false
		}
		var h uint64
		for _, c := range parts[1] {
			h = h*16 + uint64(strings.IndexRune("0123456789abcdef", c))
		}
		return h < 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegeneratePolicies(t *testing.T) {
	if BucketDir(FlatPlacement{}, 1, 2, 3, 4) != BucketDir(FlatPlacement{}, 9, 9, 9, 9) {
		t.Fatal("flat placement must ignore all inputs")
	}
	np := NodeHashPlacement{Fanout: 8}
	if BucketDir(np, 1, 1, 1, 1) != BucketDir(np, 1, 9, 9, 9) {
		t.Fatal("node hash must depend only on the node")
	}
	if BucketDir(np, 1, 1, 1, 1) == BucketDir(np, 2, 1, 1, 1) {
		t.Fatal("node hash must separate nodes")
	}
	// Zero fanout falls back safely.
	if got := BucketDir(HashPlacement{}, 1, 1, 1, 1); got == "" {
		t.Fatal("zero-fanout hash placement returned empty dir")
	}
	for _, p := range []Placement{HashPlacement{Fanout: 4}, NodeHashPlacement{Fanout: 4}, FlatPlacement{}} {
		if p.Name() == "" {
			t.Fatal("placement must have a name")
		}
	}
}

// TestCreatePathStringsMatchFormatVerbs pins the strings a create
// builds by hand (strconv into one buffer) against the format verbs
// they replaced, byte for byte: padding narrower and wider than the
// value, both hash placement levels, the node placement, and the object
// name behind buckets of any length.
func TestCreatePathStringsMatchFormatVerbs(t *testing.T) {
	for _, tc := range []struct {
		fanout, subdirs int
		rnd             uint64
	}{
		{1, 0, 0}, {64, 1, 7}, {64, 8, 0}, {64, 8, 13}, {1024, 1, 0},
		{4096, 128, 127}, {1 << 20, 1000, 999}, {0, 2, 1 << 63},
	} {
		hp := HashPlacement{Fanout: tc.fanout, RandomSubdirs: tc.subdirs}
		for node := 0; node < 40; node++ {
			parent := vfs.Ino(node*7919 + 1)
			fanout := uint64(max(tc.fanout, 1))
			want := fmt.Sprintf("o/%03x", hash3(node, node+1, parent)%fanout)
			if tc.subdirs > 1 {
				want = fmt.Sprintf("%s/r%02d", want, tc.rnd%uint64(tc.subdirs))
			}
			if got := BucketDir(hp, node, node+1, parent, tc.rnd); got != want {
				t.Fatalf("BucketDir(fanout %d, subdirs %d, node %d) = %q, want %q", tc.fanout, tc.subdirs, node, got, want)
			}
		}
	}
	for _, fanout := range []int{0, 1, 64, 1 << 20} {
		np := NodeHashPlacement{Fanout: fanout}
		for node := 0; node < 40; node++ {
			want := fmt.Sprintf("n/%03x", uint64(node)%uint64(max(fanout, 1)))
			if got := BucketDir(np, node, 1, 1, 1); got != want {
				t.Fatalf("NodeHashPlacement{%d}.BucketDir(node %d) = %q, want %q", fanout, node, got, want)
			}
		}
	}
	for _, bucket := range []string{"o/03f", "o/03f/r07", "flat", "", strings.Repeat("deep/", 20)} {
		for _, n := range []uint64{0, 1, 0xabc, 1 << 40, 1<<63 + 5} {
			want := fmt.Sprintf("%s/f%x.%x", bucket, n, n/3)
			if got := string(appendObjectName([]byte(bucket), n, n/3)); got != want {
				t.Fatalf("appendObjectName(%q, %#x, %#x) = %q, want %q", bucket, n, n/3, got, want)
			}
		}
	}
}

// TestInitDirsMatchFormatVerbs: the install-time directory lists, built
// with appendPadded, name exactly the directories fmt's verbs name.
func TestInitDirsMatchFormatVerbs(t *testing.T) {
	for _, tc := range []struct{ fanout, subdirs int }{
		{0, 0}, {1, 1}, {64, 0}, {64, 8}, {300, 2}, {4096, 1}, {5000, 128},
	} {
		var want []string
		for i := 0; i < max(tc.fanout, 1); i++ {
			if tc.subdirs <= 1 {
				want = append(want, fmt.Sprintf("o/%03x", i))
				continue
			}
			for r := 0; r < tc.subdirs; r++ {
				want = append(want, fmt.Sprintf("o/%03x/r%02d", i, r))
			}
		}
		if got := (HashPlacement{Fanout: tc.fanout, RandomSubdirs: tc.subdirs}).InitDirs(); !slices.Equal(got, want) {
			t.Fatalf("HashPlacement{%d, %d}.InitDirs() differs from the format verbs", tc.fanout, tc.subdirs)
		}
	}
	for _, fanout := range []int{0, 1, 64, 5000} {
		var want []string
		for i := 0; i < max(fanout, 1); i++ {
			want = append(want, fmt.Sprintf("n/%03x", i))
		}
		if got := (NodeHashPlacement{Fanout: fanout}).InitDirs(); !slices.Equal(got, want) {
			t.Fatalf("NodeHashPlacement{%d}.InitDirs() differs from the format verbs", fanout)
		}
	}
}
