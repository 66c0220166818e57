// Package stats provides the small statistical helpers used by the
// benchmark harnesses: streaming summaries, percentiles, counters and
// aligned text grids in the units the paper reports (ms per operation,
// MB/s).
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary accumulates a stream of duration samples using Welford's
// algorithm, keeping the raw samples for percentile queries. The sorted
// view computed by the first Percentile call is cached until the next
// Add, so benchgate-style reports that ask for several quantiles in a
// row sort once, not once per quantile.
type Summary struct {
	samples []time.Duration
	sorted  []time.Duration // cached sorted view; nil when stale
	mean    float64         // nanoseconds
	m2      float64
	min     time.Duration
	max     time.Duration
}

// Add records one sample.
func (s *Summary) Add(d time.Duration) {
	if len(s.samples) == 0 || d < s.min {
		s.min = d
	}
	if len(s.samples) == 0 || d > s.max {
		s.max = d
	}
	s.samples = append(s.samples, d)
	s.sorted = nil
	n := float64(len(s.samples))
	delta := float64(d) - s.mean
	s.mean += delta / n
	s.m2 += delta * (float64(d) - s.mean)
}

// N returns the number of samples.
func (s *Summary) N() int { return len(s.samples) }

// Mean returns the average sample.
func (s *Summary) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return time.Duration(s.mean)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() time.Duration {
	if len(s.samples) < 2 {
		return 0
	}
	return time.Duration(math.Sqrt(s.m2 / float64(len(s.samples)-1)))
}

// Sum returns the exact total of the samples.
func (s *Summary) Sum() time.Duration {
	var total time.Duration
	for _, d := range s.samples {
		total += d
	}
	return total
}

// Min returns the smallest sample.
func (s *Summary) Min() time.Duration { return s.min }

// Max returns the largest sample.
func (s *Summary) Max() time.Duration { return s.max }

// Percentile returns the q-th percentile (0 <= q <= 100) using
// nearest-rank interpolation.
func (s *Summary) Percentile(q float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	sorted := s.sorted
	if sorted == nil {
		sorted = make([]time.Duration, len(s.samples))
		copy(sorted, s.samples)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s.sorted = sorted
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := q / 100 * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// MeanMs returns the mean in (fractional) milliseconds, the unit used by
// every latency figure in the paper.
func (s *Summary) MeanMs() float64 { return float64(s.Mean()) / float64(time.Millisecond) }

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3fms std=%.3fms min=%.3fms max=%.3fms",
		s.N(), s.MeanMs(),
		float64(s.Std())/float64(time.Millisecond),
		float64(s.Min())/float64(time.Millisecond),
		float64(s.Max())/float64(time.Millisecond))
}

// Grid renders rows of cells as aligned text columns, the first
// left-aligned and the rest right-aligned. A column is 16 wide, or one
// wider than its widest cell, so two cells never touch.
func Grid(rows [][]string) string {
	var width []int
	for _, r := range rows {
		for i, c := range r {
			if i == len(width) {
				width = append(width, 16)
			}
			width[i] = max(width[i], len(c)+1)
		}
	}
	var b strings.Builder
	for _, r := range rows {
		for i, c := range r {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", width[i], c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Counters is an ordered set of named int64 counters: the per-layer
// observability surface the tools print (RPCs sent, cache hits, lease
// revocations, ...). Names keep first-Add order so reports are stable.
type Counters struct {
	names []string
	vals  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{vals: make(map[string]int64)}
}

// Add accumulates v into the named counter, registering the name on
// first use.
func (c *Counters) Add(name string, v int64) {
	if _, ok := c.vals[name]; !ok {
		c.names = append(c.names, name)
	}
	c.vals[name] += v
}

// Get returns the named counter (0 if never added).
func (c *Counters) Get(name string) int64 { return c.vals[name] }

// Names returns the counter names in registration order.
func (c *Counters) Names() []string { return append([]string(nil), c.names...) }

// Merge adds every counter of other into c, registering names c has
// not seen; a nil other adds nothing.
func (c *Counters) Merge(other *Counters) {
	if other == nil {
		return
	}
	for _, n := range other.names {
		c.Add(n, other.vals[n])
	}
}

// String renders the counters through the same canonical sorted layout
// as Fprint, so the two surfaces can never drift apart again.
func (c *Counters) String() string {
	var b strings.Builder
	c.Fprint(&b, "")
	return b.String()
}

// Fprint writes the counters as aligned "name value" lines sorted by
// counter name, each line prefixed with indent. This is the one
// canonical rendering every tool prints (cofsctl, mdtest, metarates),
// so counter reports line up and diff across tools regardless of the
// order the layers registered them in.
func (c *Counters) Fprint(w io.Writer, indent string) {
	names := c.Names()
	sort.Strings(names)
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range names {
		fmt.Fprintf(w, "%s%-*s %12d\n", indent, width, n, c.vals[n])
	}
}

// MBps converts bytes moved in elapsed virtual time to MB/s (1 MB = 2^20).
func MBps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / elapsed.Seconds()
}
