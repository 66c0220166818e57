// Command benchgate holds the benchmark battery to its checked-in
// baseline. The bench CI job runs the gated benchmarks (which emit
// BENCH_*.json records, internal/bench.WriteRecord), then runs
//
//	benchgate -dir . -baseline bench/baseline.json
//
// which fails the build when any record regresses. Two classes of
// metric, two rules:
//
//   - Virtual-time figures (vms_per_op, every "extra" metric, ops and
//     the per-layer counters) are deterministic — pure functions of
//     seed and configuration — so they must match the baseline
//     EXACTLY. A diff is either an intended behaviour change (rerun
//     with -update and commit the new baseline alongside the change
//     that explains it) or a lost determinism guarantee.
//   - Host-cost figures (wall_seconds, allocs_per_op) vary with the
//     machine, so they are gated with headroom: the run fails only
//     when it exceeds baseline by the -wall-tol / -alloc-tol factors.
//     Allocations are near-deterministic for the same binary, so their
//     tolerance is tight; wall time absorbs CI hardware spread.
//
// -update rewrites the baseline from the records in -dir instead of
// checking, which is also how the file is first created.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"cofs/internal/bench"
)

func main() {
	baseline := flag.String("baseline", "bench/baseline.json", "checked-in baseline file")
	dir := flag.String("dir", ".", "directory holding the BENCH_*.json records to check")
	update := flag.Bool("update", false, "rewrite the baseline from the records instead of checking")
	wallTol := flag.Float64("wall-tol", 2.5, "allowed wall_seconds growth factor over baseline")
	allocTol := flag.Float64("alloc-tol", 1.15, "allowed allocs_per_op growth factor over baseline")
	pctTol := flag.Float64("pct-tol", 1.10, "allowed p50_ms/p99_ms growth factor over baseline")
	flag.Parse()

	cur, err := readRecords(*dir)
	if err != nil {
		fatal(err)
	}
	if len(cur) == 0 {
		fatal(fmt.Errorf("no BENCH_*.json records in %s (run the gated benchmarks first)", *dir))
	}
	if *update {
		if err := writeBaseline(*baseline, cur); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote %d records to %s\n", len(cur), *baseline)
		return
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		fatal(err)
	}
	problems := compare(base, cur, *wallTol, *allocTol, *pctTol)
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d problem(s) vs %s:\n", len(problems), *baseline)
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "  %s\n", p)
		}
		fmt.Fprintln(os.Stderr, "(intended change? regenerate with: go run ./cmd/benchgate -update)")
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d records match baseline (wall within %gx, allocs within %gx)\n",
		len(cur), *wallTol, *allocTol)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(2)
}

// readRecords loads every BENCH_*.json in dir, keyed by record name.
func readRecords(dir string) (map[string]bench.Record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	recs := make(map[string]bench.Record)
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r bench.Record
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("%s: %v", f, err)
		}
		if r.Name == "" {
			return nil, fmt.Errorf("%s: record has no name", f)
		}
		recs[r.Name] = r
	}
	return recs, nil
}

// readBaseline loads the checked-in baseline array, keyed by name.
func readBaseline(path string) (map[string]bench.Record, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []bench.Record
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	recs := make(map[string]bench.Record, len(list))
	for _, r := range list {
		recs[r.Name] = r
	}
	return recs, nil
}

// writeBaseline stores the records as a name-sorted JSON array.
func writeBaseline(path string, recs map[string]bench.Record) error {
	list := make([]bench.Record, 0, len(recs))
	for _, r := range recs {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	body, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0644)
}

// compare checks every record in both directions: a baseline entry
// with no fresh record means the battery shrank; a fresh record with
// no baseline entry means a benchmark was added without regenerating
// the baseline. Both fail — the baseline must always cover exactly
// the gated battery.
func compare(base, cur map[string]bench.Record, wallTol, allocTol, pctTol float64) []string {
	var problems []string
	for _, name := range slices.Sorted(maps.Keys(base)) {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: in baseline but not produced by the battery", name))
			continue
		}
		problems = append(problems, compareOne(name, b, c, wallTol, allocTol, pctTol)...)
	}
	for _, name := range slices.Sorted(maps.Keys(cur)) {
		if _, ok := base[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: produced by the battery but missing from the baseline", name))
		}
	}
	return problems
}

// compareOne checks one record against its baseline entry. Map-valued
// metrics are walked in key order, so the problem list is the same on
// every run.
func compareOne(name string, b, c bench.Record, wallTol, allocTol, pctTol float64) []string {
	var problems []string
	exact := func(metric string, want, got float64) {
		if want != got {
			problems = append(problems,
				fmt.Sprintf("%s: %s = %v, baseline %v (deterministic metric; must match exactly)", name, metric, got, want))
		}
	}
	exact("vms_per_op", b.VmsPerOp, c.VmsPerOp)
	exact("ops", float64(b.Ops), float64(c.Ops))
	if b.Shards != c.Shards {
		problems = append(problems, fmt.Sprintf("%s: shards = %d, baseline %d", name, c.Shards, b.Shards))
	}
	for _, k := range slices.Sorted(maps.Keys(b.Extra)) {
		exact("extra."+k, b.Extra[k], c.Extra[k])
	}
	for _, k := range slices.Sorted(maps.Keys(c.Extra)) {
		if _, ok := b.Extra[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s: extra.%s not in baseline", name, k))
		}
	}
	for _, k := range slices.Sorted(maps.Keys(b.Counters)) {
		if want, got := b.Counters[k], c.Counters[k]; got != want {
			problems = append(problems,
				fmt.Sprintf("%s: counter %s = %d, baseline %d (deterministic; must match exactly)", name, k, got, want))
		}
	}
	for _, k := range slices.Sorted(maps.Keys(c.Counters)) {
		if _, ok := b.Counters[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s: counter %s not in baseline", name, k))
		}
	}
	headroom := func(metric string, want, got, tol float64) {
		if want > 0 && got > want*tol {
			problems = append(problems,
				fmt.Sprintf("%s: %s = %.4g exceeds baseline %.4g x%.2f tolerance", name, metric, got, want, tol))
		}
	}
	headroom("wall_seconds", b.WallSeconds, c.WallSeconds, wallTol)
	headroom("allocs_per_op", b.AllocsPerOp, c.AllocsPerOp, allocTol)
	// Percentiles are virtual-time figures and thus deterministic, but
	// they are gated as a band rather than exactly: a tail percentile is
	// a single sampled operation, so a legitimate scheduling-order
	// change inside an unchanged-mean workload may move it slightly. A
	// baseline without the fields (want 0) gates nothing — regenerate
	// with -update to arm them.
	headroom("p50_ms", b.P50Ms, c.P50Ms, pctTol)
	headroom("p99_ms", b.P99Ms, c.P99Ms, pctTol)
	return problems
}
