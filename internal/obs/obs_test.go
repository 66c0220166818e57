package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"cofs/internal/sim"
)

// ---- Histogram ----

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count=%d, want 1000", h.Count())
	}
	if got, want := h.Mean(), 500500*time.Nanosecond; got != want {
		t.Fatalf("mean=%v, want %v (the mean is exact, not bucketed)", got, want)
	}
	if h.Max() != 1000*time.Microsecond {
		t.Fatalf("max=%v", h.Max())
	}
	// Quantiles are bucket-interpolated: exact only to within the
	// winning bucket's 2x width. p50 of 1..1000us lives in the
	// [512us,1024us) bucket.
	p50 := h.Quantile(50)
	if p50 < 250*time.Microsecond || p50 > time.Millisecond {
		t.Fatalf("p50=%v outside its 2x bucket envelope", p50)
	}
	// Quantiles never exceed the observed max and are monotone in q.
	last := time.Duration(0)
	for _, q := range []float64{0, 25, 50, 75, 95, 99, 100} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantiles not monotone: q=%v gave %v after %v", q, v, last)
		}
		if v > h.Max() {
			t.Fatalf("q=%v gave %v above max %v", q, v, h.Max())
		}
		last = v
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-time.Second) // clamped to 0
	h.Observe(0)
	if h.Count() != 2 || h.Max() != 0 {
		t.Fatalf("count=%d max=%v after clamped observes", h.Count(), h.Max())
	}
	if h.Quantile(99) != 0 {
		t.Fatalf("all-zero samples must quantile to 0, got %v", h.Quantile(99))
	}
}

// ---- Gauge ----

func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Add(4)
	g.Add(-5)
	if g.Cur() != 2 {
		t.Fatalf("cur=%d, want 2", g.Cur())
	}
	if g.High() != 7 {
		t.Fatalf("high=%d, want 7", g.High())
	}
	if g.Samples() != 3 {
		t.Fatalf("samples=%d, want 3", g.Samples())
	}
}

// ---- Window ----

func TestWindowSlidesAndExpires(t *testing.T) {
	w := NewWindow(4, 10*time.Millisecond) // covers 40ms
	w.Add(5*time.Millisecond, 3)
	w.Add(15*time.Millisecond, 2)
	if got := w.Total(15 * time.Millisecond); got != 5 {
		t.Fatalf("total=%d, want 5", got)
	}
	// 50ms later the first slot's epoch has been lapped: only the
	// second batch could survive, and at 60ms everything is stale.
	if got := w.Total(45 * time.Millisecond); got != 2 {
		t.Fatalf("total after sliding=%d, want 2", got)
	}
	if got := w.Total(100 * time.Millisecond); got != 0 {
		t.Fatalf("total after full expiry=%d, want 0", got)
	}
	// Rate normalizes over the whole covered span.
	w2 := NewWindow(10, 100*time.Millisecond) // 1s span
	w2.Add(time.Second, 250)
	if got := w2.Rate(time.Second); got != 250 {
		t.Fatalf("rate=%v, want 250/s", got)
	}
}

// ---- Skew ----

func TestSkew(t *testing.T) {
	if hot, ratio := Skew(nil); hot != -1 || ratio != 1 {
		t.Fatalf("empty skew = (%d, %v)", hot, ratio)
	}
	if _, ratio := Skew([]float64{0, 0, 0}); ratio != 1 {
		t.Fatalf("idle plane ratio=%v, want 1", ratio)
	}
	hot, ratio := Skew([]float64{100, 100, 400, 100})
	if hot != 2 || ratio != 4 {
		t.Fatalf("skew = (%d, %v), want (2, 4)", hot, ratio)
	}
	if _, ratio := Skew([]float64{0, 0, 50}); !math.IsInf(ratio, 1) {
		t.Fatalf("zero-median ratio=%v, want +Inf", ratio)
	}
}

// ---- Metrics registry ----

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	m.GrowShards(2)
	if m.Shards() != 2 {
		t.Fatalf("shards=%d", m.Shards())
	}
	m.Observe("op.stat", 0, time.Millisecond)
	m.Observe("op.stat", 0, 2*time.Millisecond)
	m.Observe("op.create", 1, 4*time.Millisecond)
	if got := m.Hist(HKey{"op.stat", 0}).Count(); got != 2 {
		t.Fatalf("stat count=%d", got)
	}
	if m.Quantile("op.create", 1, 100) != 4*time.Millisecond {
		t.Fatalf("p100 create=%v", m.Quantile("op.create", 1, 100))
	}
	if m.Quantile("op.never", 0, 50) != 0 {
		t.Fatal("unseen key must quantile to 0")
	}
	// Keys sort by op then shard regardless of observation order.
	keys := m.Keys()
	if len(keys) != 2 || keys[0].Op != "op.create" || keys[1].Op != "op.stat" {
		t.Fatalf("keys=%v", keys)
	}
	// The skew feed: shard 1 hot at 3x the median.
	now := 100 * time.Millisecond
	for i := 0; i < 30; i++ {
		m.AddRequest(1, now)
	}
	for i := 0; i < 10; i++ {
		m.AddRequest(0, now)
	}
	hot, ratio := Skew(m.RequestRates(now))
	if hot != 1 || ratio != 3 {
		t.Fatalf("skew feed = (%d, %v), want (1, 3)", hot, ratio)
	}
	m.AddRowMoves(0, 7, now)
	if rates := m.RowMoveRates(now); rates[0] == 0 || rates[1] != 0 {
		t.Fatalf("row-move rates=%v", rates)
	}
	// The report renders deterministically and mentions every surface.
	var b strings.Builder
	m.Fprint(&b, "")
	m.FprintRates(&b, "", now)
	out := b.String()
	for _, want := range []string{"op.create[1]", "op.stat[0]", "queue-depth[0]", "lock-occupancy", "skew: hot shard 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// ---- Tracer ----

// traceRun drives a small deterministic two-proc scenario through a
// tracer: nested spans, phase transitions and a retroactive wait.
func traceRun(tr *Tracer) {
	env := sim.NewEnv(42)
	env.Spawn("client0", func(p *sim.Proc) {
		tr.Begin(p, "node0", "op.create", 0)
		tr.Begin(p, "node0", "rpc.send", -1)
		p.Sleep(time.Millisecond)
		tr.Next(p, "rpc.serve")
		p.Sleep(2 * time.Millisecond)
		tr.End(p)
		tr.End(p)
	})
	env.Spawn("client1", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		start := p.Now()
		p.Sleep(3 * time.Millisecond)
		tr.Complete(p, "node1", "lock.wait", start, 1)
		tr.Begin(p, "node1", "op.stat", 1)
		tr.End(p)
	})
	env.MustRun()
}

type chromeEvent struct {
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Name string  `json:"name"`
	Args map[string]any
}

func decodeChrome(t *testing.T, body []byte) []chromeEvent {
	t.Helper()
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

func TestTracerChromeExport(t *testing.T) {
	tr := NewTracer()
	traceRun(tr)
	if tr.Spans != 5 {
		t.Fatalf("spans=%d, want 5 (create, send, serve, wait, stat)", tr.Spans)
	}
	if tr.Tracks() != 2 {
		t.Fatalf("tracks=%d", tr.Tracks())
	}
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	events := decodeChrome(t, []byte(b.String()))
	// Balanced B/E and monotone timestamps, per (pid, tid) track.
	type key struct{ pid, tid int }
	depth := map[key]int{}
	lastTS := map[key]float64{}
	var names []string
	for _, ev := range events {
		k := key{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "M":
			continue
		case "B":
			depth[k]++
			names = append(names, ev.Name)
		case "E":
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("track %v closes more spans than it opens", k)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ev.Ts < lastTS[k] {
			t.Fatalf("track %v timestamps go backwards: %v after %v", k, ev.Ts, lastTS[k])
		}
		lastTS[k] = ev.Ts
	}
	for k, d := range depth {
		if d != 0 {
			t.Fatalf("track %v ends with %d unbalanced spans", k, d)
		}
	}
	want := []string{"op.create", "rpc.send", "rpc.serve", "lock.wait", "op.stat"}
	got := strings.Join(names, " ")
	for _, n := range want {
		if !strings.Contains(got, n) {
			t.Fatalf("export missing span %q: %s", n, got)
		}
	}
}

func TestTracerShardArgs(t *testing.T) {
	tr := NewTracer()
	traceRun(tr)
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	for _, ev := range decodeChrome(t, []byte(b.String())) {
		if ev.Ph != "B" || ev.Name != "op.stat" {
			continue
		}
		if got := ev.Args["shard"]; got != float64(1) {
			t.Fatalf("op.stat shard arg = %v, want 1", got)
		}
		return
	}
	t.Fatal("op.stat B event not found")
}

func TestTracerFingerprintDeterministic(t *testing.T) {
	a, b := NewTracer(), NewTracer()
	traceRun(a)
	traceRun(b)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same run, different fingerprints: the trace is not deterministic")
	}
	c := NewTracer()
	env := sim.NewEnv(1)
	env.Spawn("x", func(p *sim.Proc) { c.Begin(p, "", "op.other", -1); c.End(p) })
	env.MustRun()
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different runs collide on fingerprint")
	}
}

func TestTracerJSONLExport(t *testing.T) {
	tr := NewTracer()
	traceRun(tr)
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != tr.Events() {
		t.Fatalf("%d lines for %d events", len(lines), tr.Events())
	}
	for _, line := range lines {
		var ev struct {
			Track string  `json:"track"`
			Ph    string  `json:"ph"`
			Name  string  `json:"name"`
			TsUs  float64 `json:"ts_us"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ev.Track == "" || ev.Name == "" || (ev.Ph != "B" && ev.Ph != "E") {
			t.Fatalf("malformed event %q", line)
		}
	}
}

func TestTracerDanglingSpansClosed(t *testing.T) {
	tr := NewTracer()
	env := sim.NewEnv(7)
	env.Spawn("worker", func(p *sim.Proc) {
		tr.Begin(p, "", "op.outer", 0)
		tr.Begin(p, "", "op.inner", -1)
		p.Sleep(time.Millisecond)
		// Run ends with both spans open.
	})
	env.MustRun()
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	open := 0
	for _, ev := range decodeChrome(t, []byte(b.String())) {
		switch ev.Ph {
		case "B":
			open++
		case "E":
			open--
		}
	}
	if open != 0 {
		t.Fatalf("export left %d spans unbalanced; dangling frames must be closed", open)
	}
}

func TestTracerSlowLog(t *testing.T) {
	tr := NewTracer()
	env := sim.NewEnv(3)
	env.Spawn("ranks", func(p *sim.Proc) {
		for i := 1; i <= 100; i++ {
			tr.Begin(p, "node0", "op.stat", 0)
			tr.Begin(p, "node0", "rpc.send", -1)
			p.Sleep(time.Duration(i) * time.Microsecond)
			tr.End(p)
			tr.End(p)
		}
	})
	env.MustRun()
	slow := tr.Slowest(4)
	if len(slow) != 4 {
		t.Fatalf("got %d slow spans", len(slow))
	}
	if slow[0].Dur != 100*time.Microsecond || slow[3].Dur != 97*time.Microsecond {
		t.Fatalf("slow table not duration-ordered: %v, %v", slow[0].Dur, slow[3].Dur)
	}
	if len(slow[0].Kids) != 1 || slow[0].Kids[0].Name != "rpc.send" {
		t.Fatalf("slowest span lost its child breakdown: %+v", slow[0].Kids)
	}
	var b strings.Builder
	tr.FprintSlow(&b, 99*time.Microsecond, 16)
	out := b.String()
	if !strings.Contains(out, "op.stat") || !strings.Contains(out, "rpc.send") {
		t.Fatalf("slow log missing entries:\n%s", out)
	}
	if strings.Count(out, "op.stat") != 2 {
		t.Fatalf("threshold should keep exactly 2 spans (>=99us):\n%s", out)
	}
	b.Reset()
	tr.FprintSlow(&b, time.Hour, 16)
	if !strings.Contains(b.String(), "no spans") {
		t.Fatalf("empty slow log should say so: %q", b.String())
	}
}
