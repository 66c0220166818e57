package experiments

import (
	"strings"
	"testing"

	"cofs/internal/params"
	"cofs/internal/trace"
)

func TestTargetsIndependent(t *testing.T) {
	// Two testbeds from the same seed are identical; the helpers must
	// not share state between calls.
	a := target(3, "gpfs", 2, params.Default())
	b := target(3, "gpfs", 2, params.Default())
	phases := trace.Metarates(trace.MetaratesConfig{Nodes: 2, ProcsPerNode: 1, FilesPerProc: 16, Dir: "/d", Ops: []string{"stat"}})
	ra, rb := run(a, phases), run(b, phases)
	if ra.MeanMs("stat") != rb.MeanMs("stat") {
		t.Fatalf("same-seed runs differ: %v vs %v", ra.MeanMs("stat"), rb.MeanMs("stat"))
	}
}

func TestVerdict(t *testing.T) {
	if v := verdict(100, 100); v != "comparable" {
		t.Fatalf("verdict(equal)=%q", v)
	}
	if v := verdict(100, 50); !strings.HasPrefix(v, "gpfs") {
		t.Fatalf("verdict(gpfs wins)=%q", v)
	}
	if v := verdict(50, 100); !strings.HasPrefix(v, "cofs") {
		t.Fatalf("verdict(cofs wins)=%q", v)
	}
	if v := verdict(0, 10); v != "n/a" {
		t.Fatalf("verdict(zero)=%q", v)
	}
}

func TestByteLabel(t *testing.T) {
	if byteLabel(256<<20) != "256MB" || byteLabel(4<<30) != "4GB" {
		t.Fatal("byteLabel wrong")
	}
}
