package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads the -json records of one set of runs.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// sideStats reduces one side's runs of one (workload, metric) pair.
type sideStats struct {
	Values []float64
	Median float64
	Spread float64 // interquartile range as a share of the median
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func reduce(v []float64) sideStats {
	st := sideStats{Values: v, Median: median(v)}
	if q1, q3 := quartiles(v); st.Median != 0 {
		st.Spread = (q3 - q1) / st.Median
	}
	return st
}

// verdict compares side b against side a for one metric: how much worse
// b's median is as a share of a's, and what that means given the bound
// and the spread of both sides.
func verdict(d metricDef, a, b sideStats) (worse float64, v string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if d.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case a.Spread > d.Bound || b.Spread > d.Bound:
		v = "unresolved"
	case worse > d.Bound:
		v = "worse"
	case worse < -d.Bound:
		v = "better"
	default:
		v = "same"
	}
	return worse, v
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns 1 if any metric got worse or more operations failed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no records", pathA)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s: no records", pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	type side struct {
		vals              map[string][]float64
		attempted, failed int
		incorrect         int
	}
	collect := func(recs []record) map[string]*side {
		out := map[string]*side{}
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			s := out[r.Workload]
			if s == nil {
				s = &side{vals: map[string][]float64{}}
				out[r.Workload] = s
			}
			s.attempted += r.Attempted
			s.failed += r.Failed
			if !r.Correct {
				s.incorrect++
			}
			for name, m := range r.Metrics {
				s.vals[name] = append(s.vals[name], m.Value)
			}
		}
		return out
	}
	sa, sb := collect(a), collect(b)
	exit := 0
	fmt.Fprintf(stdout, "%-15s %-19s %14s %14s %8s %7s %7s %7s  %s\n",
		"workload", "metric", "a.median", "b.median", "worse", "bound", "a.iqr", "b.iqr", "verdict")
	for _, w := range workloadNames {
		x, y := sa[w], sb[w]
		if x == nil || y == nil {
			if x != y {
				fmt.Fprintf(stdout, "%-15s only in one file\n", w)
				exit = 1
			}
			continue
		}
		for _, d := range endToEnd {
			if len(x.vals[d.Name]) == 0 || len(y.vals[d.Name]) == 0 {
				fmt.Fprintf(stdout, "%-15s %-19s missing\n", w, d.Name)
				exit = 1
				continue
			}
			ra, rb := reduce(x.vals[d.Name]), reduce(y.vals[d.Name])
			worse, v := verdict(d, ra, rb)
			if v == "worse" {
				exit = 1
			}
			fmt.Fprintf(stdout, "%-15s %-19s %14.6g %14.6g %+7.2f%% %6.1f%% %6.2f%% %6.2f%%  %s\n",
				w, d.Name, ra.Median, rb.Median, 100*worse, 100*d.Bound, 100*ra.Spread, 100*rb.Spread, v)
		}
		fa, fb := ratio(float64(x.failed), float64(x.attempted)), ratio(float64(y.failed), float64(y.attempted))
		v := "same"
		if fb > fa || y.incorrect > x.incorrect {
			v, exit = "worse", 1
		}
		fmt.Fprintf(stdout, "%-15s %-19s %14.6g %14.6g %32s  %s\n", w, "fail_share", fa, fb, "", v)
	}
	return exit
}
