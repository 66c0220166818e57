package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Histogram is a log-bucketed latency histogram over virtual-time
// durations: bucket i holds samples whose nanosecond value has bit
// length i (power-of-two bucket edges), so one fixed 65-slot array
// covers 1ns..292y with ~2x resolution and no allocation per sample.
// Quantiles interpolate linearly inside the winning bucket.
type Histogram struct {
	buckets [65]int64
	count   int64
	sum     time.Duration
	max     time.Duration
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bits.Len64(uint64(d))]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the exact mean of the observed samples.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest observed sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the q-th percentile (q in [0,100]), interpolated
// within the winning log bucket — exact to within the bucket's 2x
// width, deterministic across runs.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := q / 100 * float64(h.count)
	if rank < 1 {
		rank = 1
	}
	target := int64(math.Ceil(rank))
	if target > h.count {
		target = h.count
	}
	var cum int64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if cum+n < target {
			cum += n
			continue
		}
		// Bucket i spans [2^(i-1), 2^i-1] ns (bucket 0 is exactly 0).
		if i == 0 {
			return 0
		}
		lo := int64(1) << (i - 1)
		hi := int64(1)<<i - 1
		frac := float64(target-cum) / float64(n)
		v := time.Duration(float64(lo) + frac*float64(hi-lo))
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// Gauge tracks a current level, its high-water mark and how often it
// was sampled (queue depth, lock-table occupancy).
type Gauge struct {
	cur     int64
	high    int64
	samples int64
}

// Set replaces the gauge's current level.
func (g *Gauge) Set(v int64) {
	g.cur = v
	g.samples++
	if v > g.high {
		g.high = v
	}
}

// Add bumps the gauge by delta (negative to drain).
func (g *Gauge) Add(delta int64) { g.Set(g.cur + delta) }

// Cur returns the current level.
func (g *Gauge) Cur() int64 { return g.cur }

// High returns the highest level ever set.
func (g *Gauge) High() int64 { return g.high }

// Samples returns how many times the level was set: a queue gauge is
// set once per request its channels deliver, so a gauge nothing samples
// marks a channel nobody wired.
func (g *Gauge) Samples() int64 { return g.samples }

// Window is a sliding-window event counter over virtual time: a ring of
// fixed-width slots stamped with their epoch, so expiry is lazy and
// recording is O(1) with no allocation. Rate reports events per virtual
// second over the covered window — the per-shard load Skew condenses.
type Window struct {
	slots  []int64
	epochs []int64
	width  time.Duration
}

// NewWindow builds a window of n slots of the given width; the window
// covers n*width of virtual time.
func NewWindow(n int, width time.Duration) *Window {
	if n < 1 || width <= 0 {
		panic("obs: bad window shape")
	}
	return &Window{slots: make([]int64, n), epochs: make([]int64, n), width: width}
}

// Add records n events at virtual time now.
func (w *Window) Add(now time.Duration, n int64) {
	e := int64(now / w.width)
	s := e % int64(len(w.slots))
	if w.epochs[s] != e {
		w.epochs[s] = e
		w.slots[s] = 0
	}
	w.slots[s] += n
}

// Total returns the number of events inside the window ending at now.
func (w *Window) Total(now time.Duration) int64 {
	e := int64(now / w.width)
	var sum int64
	for i := range w.slots {
		if age := e - w.epochs[i]; age >= 0 && age < int64(len(w.slots)) {
			sum += w.slots[i]
		}
	}
	return sum
}

// Rate returns events per virtual second over the window ending at now.
func (w *Window) Rate(now time.Duration) float64 {
	span := time.Duration(len(w.slots)) * w.width
	return float64(w.Total(now)) / span.Seconds()
}

// HKey keys a latency histogram: one per (operation, shard) pair.
// Shard -1 collects operations not attributable to a single shard.
type HKey struct {
	Op    string
	Shard int
}

// Default sliding-window shape: 10 slots of 50ms cover the last half
// virtual second — a few thousand storm ops, short enough to see a
// shard go hot mid-run.
const (
	defaultWinSlots = 10
	defaultWinWidth = 50 * time.Millisecond
)

// Metrics is the registry: latency histograms per (op, shard), queue
// and lock-table gauges, and per-shard sliding-window request/row-move
// rates. Like the Tracer it lives inside the cooperative simulation —
// no locking, and key order is tracked explicitly so every report is
// deterministic.
type Metrics struct {
	hists map[HKey]*Histogram
	order []HKey
	// queues[i] tracks shard i's worker-queue depth (requests waiting
	// for a worker, sampled as each request arrives); lock tracks
	// row-lock table occupancy (live locked rows).
	queues []*Gauge
	lock   Gauge
	// req[i] / moves[i] are shard i's sliding-window request and
	// row-move counts — the skew feed.
	req      []*Window
	moves    []*Window
	winSlots int
	winWidth time.Duration
}

// NewMetrics returns an empty registry with the default window shape.
func NewMetrics() *Metrics {
	return &Metrics{
		hists:    make(map[HKey]*Histogram),
		winSlots: defaultWinSlots,
		winWidth: defaultWinWidth,
	}
}

// SetWindow reshapes the sliding windows (before any shard is grown).
func (m *Metrics) SetWindow(slots int, width time.Duration) {
	if len(m.req) > 0 {
		panic("obs: SetWindow after shards grown")
	}
	m.winSlots, m.winWidth = slots, width
}

// GrowShards ensures per-shard gauges and windows exist for shards
// [0,n). The per-shard accessors call it, so the registry grows with
// the plane on first use.
func (m *Metrics) GrowShards(n int) {
	for len(m.queues) < n {
		m.queues = append(m.queues, &Gauge{})
		m.req = append(m.req, NewWindow(m.winSlots, m.winWidth))
		m.moves = append(m.moves, NewWindow(m.winSlots, m.winWidth))
	}
}

// Shards returns the number of shards the registry has grown to.
func (m *Metrics) Shards() int { return len(m.queues) }

// Hist returns (creating if needed) the histogram for key k.
func (m *Metrics) Hist(k HKey) *Histogram {
	h, ok := m.hists[k]
	if !ok {
		h = &Histogram{}
		m.hists[k] = h
		m.order = append(m.order, k)
	}
	return h
}

// Observe records one latency sample under (op, shard).
func (m *Metrics) Observe(op string, shard int, d time.Duration) {
	m.Hist(HKey{op, shard}).Observe(d)
}

// Quantile reports the q-th percentile for (op, shard); 0 if unseen.
func (m *Metrics) Quantile(op string, shard int, q float64) time.Duration {
	if h, ok := m.hists[HKey{op, shard}]; ok {
		return h.Quantile(q)
	}
	return 0
}

// Keys returns the histogram keys sorted by op then shard.
func (m *Metrics) Keys() []HKey {
	ks := append([]HKey(nil), m.order...)
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].Op != ks[j].Op {
			return ks[i].Op < ks[j].Op
		}
		return ks[i].Shard < ks[j].Shard
	})
	return ks
}

// QueueGauge returns shard i's RPC queue-depth gauge.
func (m *Metrics) QueueGauge(i int) *Gauge {
	m.GrowShards(i + 1)
	return m.queues[i]
}

// LockGauge returns the row-lock table occupancy gauge.
func (m *Metrics) LockGauge() *Gauge { return &m.lock }

// AddRequest counts one client request routed to shard i at now.
func (m *Metrics) AddRequest(i int, now time.Duration) {
	m.GrowShards(i + 1)
	m.req[i].Add(now, 1)
}

// AddRowMoves counts n migrated rows landing on shard i at now.
func (m *Metrics) AddRowMoves(i int, n int64, now time.Duration) {
	m.GrowShards(i + 1)
	m.moves[i].Add(now, n)
}

// RequestRates returns each shard's request rate (ops per virtual
// second) over the sliding window ending at now.
func (m *Metrics) RequestRates(now time.Duration) []float64 {
	out := make([]float64, len(m.req))
	for i, w := range m.req {
		out[i] = w.Rate(now)
	}
	return out
}

// RowMoveRates returns each shard's inbound row-migration rate over the
// sliding window ending at now.
func (m *Metrics) RowMoveRates(now time.Duration) []float64 {
	out := make([]float64, len(m.moves))
	for i, w := range m.moves {
		out[i] = w.Rate(now)
	}
	return out
}

// Skew condenses a per-shard rate vector into one imbalance figure: the
// hottest shard and its load as a multiple of the median shard. Nothing
// acts on it — Reshard(n) is an operator's call. A one-shard or idle
// plane reports ratio 1.
func Skew(rates []float64) (hot int, ratio float64) {
	if len(rates) == 0 {
		return -1, 1
	}
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	// Lower median on even counts: with two shards the upper median IS
	// the max, which would pin the ratio at 1 and hide the skew exactly
	// at the plane size reshards start from.
	median := sorted[(len(sorted)-1)/2]
	max, hot := rates[0], 0
	for i, r := range rates {
		if r > max {
			max, hot = r, i
		}
	}
	if max == 0 {
		return hot, 1
	}
	if median == 0 {
		return hot, math.Inf(1)
	}
	return hot, max / median
}

// Fprint writes the registry as a deterministic human-readable report:
// per-(op,shard) count/mean/p50/p95/p99/max, the gauges, and the
// per-shard window rates.
func (m *Metrics) Fprint(w io.Writer, indent string) {
	fmt.Fprintf(w, "%s%-22s %10s %10s %10s %10s %10s %10s\n", indent,
		"op/shard", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms")
	for _, k := range m.Keys() {
		h := m.hists[k]
		label := fmt.Sprintf("%s[%d]", k.Op, k.Shard)
		if k.Shard < 0 {
			label = k.Op
		}
		fmt.Fprintf(w, "%s%-22s %10d %10.3f %10.3f %10.3f %10.3f %10.3f\n", indent, label,
			h.Count(), ms(h.Mean()), ms(h.Quantile(50)), ms(h.Quantile(95)), ms(h.Quantile(99)), ms(h.Max()))
	}
	for i, g := range m.queues {
		fmt.Fprintf(w, "%squeue-depth[%d]         cur %d high %d\n", indent, i, g.Cur(), g.High())
	}
	fmt.Fprintf(w, "%slock-occupancy         cur %d high %d\n", indent, m.lock.Cur(), m.lock.High())
}

// FprintRates writes the per-shard sliding-window rates and the skew
// verdict at virtual time now.
func (m *Metrics) FprintRates(w io.Writer, indent string, now time.Duration) {
	req := m.RequestRates(now)
	moves := m.RowMoveRates(now)
	for i := range req {
		fmt.Fprintf(w, "%sshard[%d] req/s %.0f row-moves/s %.0f\n", indent, i, req[i], moves[i])
	}
	if hot, ratio := Skew(req); hot >= 0 {
		fmt.Fprintf(w, "%sskew: hot shard %d at %.2fx median (window %v)\n", indent, hot, ratio, time.Duration(m.winSlots)*m.winWidth)
	}
}
