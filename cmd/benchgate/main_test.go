package main

import (
	"reflect"
	"testing"

	"cofs/internal/bench"
)

// TestCompareListsProblemsInKeyOrder: a record whose extras moved lists
// one problem per moved point, sorted by key, on every run — a moved
// figure reads the same each time the gate fails.
func TestCompareListsProblemsInKeyOrder(t *testing.T) {
	base := map[string]bench.Record{"figure/f": {Name: "figure/f",
		Extra: map[string]float64{"c@1": 1, "a@1": 1, "b@1": 1, "d@1": 1}}}
	cur := map[string]bench.Record{"figure/f": {Name: "figure/f",
		Extra: map[string]float64{"c@1": 2, "a@1": 2, "b@1": 2, "d@1": 1}}}
	want := []string{
		"figure/f: extra.a@1 = 2, baseline 1 (deterministic metric; must match exactly)",
		"figure/f: extra.b@1 = 2, baseline 1 (deterministic metric; must match exactly)",
		"figure/f: extra.c@1 = 2, baseline 1 (deterministic metric; must match exactly)",
	}
	for i := 0; i < 20; i++ {
		if got := compare(base, cur, 2.5, 1.15, 1.10); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: problems\n%q\nwant\n%q", i, got, want)
		}
	}
}
