package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, d := range []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		s.Add(d)
	}
	if s.N() != 3 {
		t.Fatalf("N=%d, want 3", s.N())
	}
	if s.Mean() != 2*time.Millisecond {
		t.Fatalf("Mean=%v, want 2ms", s.Mean())
	}
	if s.Min() != time.Millisecond || s.Max() != 3*time.Millisecond {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
	if got := s.Std(); got != time.Millisecond {
		t.Fatalf("Std=%v, want 1ms", got)
	}
	if s.MeanMs() != 2.0 {
		t.Fatalf("MeanMs=%v, want 2", s.MeanMs())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty summary should return zeros")
	}
}

func TestPercentile(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.Percentile(0); got != time.Millisecond {
		t.Fatalf("p0=%v", got)
	}
	if got := s.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100=%v", got)
	}
	p50 := s.Percentile(50)
	if p50 < 50*time.Millisecond || p50 > 51*time.Millisecond {
		t.Fatalf("p50=%v", p50)
	}
}

func TestSummaryMeanMatchesNaive(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		var sum float64
		for _, v := range raw {
			d := time.Duration(v) * time.Microsecond
			s.Add(d)
			sum += float64(d)
		}
		naive := sum / float64(len(raw))
		// Mean() truncates to integer nanoseconds; allow that plus
		// float rounding.
		return math.Abs(float64(s.Mean())-naive) < 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMinMaxInvariant(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		return s.Min() <= s.Mean() && s.Mean() <= s.Max() &&
			s.Percentile(50) >= s.Min() && s.Percentile(50) <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileCacheInvalidation(t *testing.T) {
	var s Summary
	for i := 1; i <= 10; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.Percentile(100); got != 10*time.Millisecond {
		t.Fatalf("p100=%v", got)
	}
	// The sorted view is cached now; an Add must invalidate it.
	s.Add(20 * time.Millisecond)
	if got := s.Percentile(100); got != 20*time.Millisecond {
		t.Fatalf("p100 after Add=%v: the cached sorted view went stale", got)
	}
	if got := s.Percentile(0); got != time.Millisecond {
		t.Fatalf("p0=%v", got)
	}
}

// BenchmarkPercentiles backs the sorted-view cache: asking for several
// quantiles of the same summary must sort once, not once per call.
// Before the cache this benchmark allocated (and sorted) 4x per
// iteration; with it, the b.ReportAllocs figure shows one copy.
func BenchmarkPercentiles(b *testing.B) {
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(time.Duration(i%977) * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sorted = nil // fresh cache each round: measure 1 sort + 3 hits
		_ = s.Percentile(50)
		_ = s.Percentile(95)
		_ = s.Percentile(99)
		_ = s.Percentile(99.9)
	}
}

// TestGridLongCellsKeepASpace: a cell wider than the default column
// (here 20 characters, header and first column alike) still leaves a
// space before its neighbour, and the rows stay aligned under it.
func TestGridLongCellsKeepASpace(t *testing.T) {
	out := Grid([][]string{
		{"inodes per block abc", "1-node stat (ms) abc", "4-node stat (ms) xyz"},
		{"1", "0.500", "9.250"},
	})
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	want := []string{
		"inodes per block abc  1-node stat (ms) abc 4-node stat (ms) xyz",
		"1                                    0.500                9.250",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, lines[i], want[i])
		}
	}
}

func TestMBps(t *testing.T) {
	got := MBps(100<<20, 2*time.Second)
	if math.Abs(got-50) > 1e-9 {
		t.Fatalf("MBps=%v, want 50", got)
	}
	if MBps(1, 0) != 0 {
		t.Fatal("zero elapsed should be 0")
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("rpc.calls", 10)
	c.Add("cache.hits", 3)
	c.Add("rpc.calls", 5)
	if got := c.Get("rpc.calls"); got != 15 {
		t.Fatalf("rpc.calls=%d, want 15", got)
	}
	if got := c.Get("never"); got != 0 {
		t.Fatalf("unknown counter=%d, want 0", got)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "rpc.calls" || names[1] != "cache.hits" {
		t.Fatalf("names order %v, want registration order", names)
	}
	out := c.String()
	if !strings.Contains(out, "rpc.calls") || !strings.Contains(out, "15") {
		t.Fatalf("render missing data:\n%s", out)
	}
}

func TestCountersStringMatchesFprint(t *testing.T) {
	c := NewCounters()
	c.Add("zebra", 1)
	c.Add("alpha", 2)
	c.Add("mid", 3)
	var b strings.Builder
	c.Fprint(&b, "")
	if c.String() != b.String() {
		t.Fatalf("String and Fprint drifted:\n%q\nvs\n%q", c.String(), b.String())
	}
	// Both render name-sorted, whatever the registration order was.
	lines := strings.Split(strings.TrimSpace(c.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "alpha") || !strings.HasPrefix(lines[2], "zebra") {
		t.Fatalf("not name-sorted:\n%s", c.String())
	}
}

func TestCountersMerge(t *testing.T) {
	a := NewCounters()
	a.Add("rpc.calls", 10)
	a.Add("cache.hits", 3)
	b := NewCounters()
	b.Add("rpc.calls", 5)
	b.Add("mds.requests", 7)
	a.Merge(b)
	if got := a.Get("rpc.calls"); got != 15 {
		t.Fatalf("merged rpc.calls=%d, want 15", got)
	}
	if got := a.Get("cache.hits"); got != 3 {
		t.Fatalf("merge clobbered cache.hits=%d", got)
	}
	if got := a.Get("mds.requests"); got != 7 {
		t.Fatalf("merge dropped new name: mds.requests=%d", got)
	}
	if got := b.Get("rpc.calls"); got != 5 {
		t.Fatalf("merge mutated its source: %d", got)
	}
	a.Merge(nil) // a nil source is a no-op
	if got := a.Get("rpc.calls"); got != 15 {
		t.Fatalf("nil merge changed counters: %d", got)
	}
}
