// Package obs is the observability plane of the simulator: a
// virtual-time-native span tracer and a histogram/gauge/rate metrics
// registry, threaded through the RPC transport, the row-lock table, the
// WAL engines and the reshard data plane (docs/observability.md).
//
// Everything here is stamped in virtual time (sim.Proc.Now), so a trace
// of a deterministic run is itself deterministic: same seed, same
// bytes. Both halves are nil by default. A nil Tracer's span calls
// return at once, so a layer calls them unconditionally; the metrics
// hooks are nil-checked where they are wired. A deployment that does
// not enable them (params.COFSParams.Trace/Metrics) keeps the disabled
// path allocation-free and bit-identical.
package obs

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"cofs/internal/sim"
)

// event is one trace event: a span open ('B') or close ('E') at a
// virtual timestamp, in the Chrome trace-event sense. Events are
// appended eagerly at Begin/End time, so balance and per-track
// timestamp monotonicity hold by construction — the exporter never
// sorts.
type event struct {
	ph    byte
	name  string
	ts    time.Duration
	shard int32 // -1: no shard argument
}

// frame is one open span on a track's stack.
type frame struct {
	name  string
	start time.Duration
	shard int
	kids  []ChildStat
}

// ChildStat aggregates the completed child spans of one name under a
// parent span: the slow-op log prints a parent's time as a breakdown
// over these.
type ChildStat struct {
	Name  string
	Total time.Duration
	Count int
}

// track is one Perfetto thread track: all spans of one simulated proc.
// Tracks group into processes by label — the client node or the shard
// host the proc belongs to — so the exported trace renders one process
// lane per host, one thread per proc.
type track struct {
	group  string
	proc   string
	tid    int
	events []event
	stack  []frame
	lastTS time.Duration
}

// SlowSpan is one entry of the tracer's slowest-top-level-spans table.
type SlowSpan struct {
	Name  string
	Track string
	Shard int
	Start time.Duration
	Dur   time.Duration
	Kids  []ChildStat
}

// slowKeep bounds the slow-span table; -slowlog prints from it.
const slowKeep = 64

// Tracer records virtual-time spans per simulated proc and exports them
// as Chrome trace-event JSON (chrome://tracing, Perfetto) or a JSONL
// stream. It is not safe outside the simulation's cooperative
// scheduler — exactly like everything else that touches sim state.
type Tracer struct {
	byProc map[*sim.Proc]*track
	tracks []*track
	// groups maps a process label to its pid in first-use order, so the
	// exported pid assignment is deterministic.
	groups     map[string]int
	groupOrder []string
	slow       []SlowSpan
	// Spans counts every span opened (tests pin coverage with it).
	Spans int64
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{
		byProc: make(map[*sim.Proc]*track),
		groups: make(map[string]int),
	}
}

// trackOf returns (creating if needed) the calling proc's track. The
// group label is fixed at track birth — the first span a proc opens
// decides which process lane it renders under; "" falls back to the
// proc's name.
func (t *Tracer) trackOf(p *sim.Proc, group string) *track {
	tr, ok := t.byProc[p]
	if ok {
		return tr
	}
	if group == "" {
		group = p.Name()
	}
	if _, ok := t.groups[group]; !ok {
		t.groups[group] = len(t.groupOrder) + 1
		t.groupOrder = append(t.groupOrder, group)
	}
	tr = &track{group: group, proc: p.Name(), tid: len(t.tracks) + 1}
	t.byProc[p] = tr
	t.tracks = append(t.tracks, tr)
	return tr
}

func (tr *track) push(name string, ts time.Duration, shard int) {
	// Reuse the popped frame slot (and its kids buffer) when the stack
	// has capacity: a storm opens millions of spans on a few tracks.
	if n := len(tr.stack); n < cap(tr.stack) {
		tr.stack = tr.stack[:n+1]
		f := &tr.stack[n]
		f.name, f.start, f.shard, f.kids = name, ts, shard, f.kids[:0]
	} else {
		tr.stack = append(tr.stack, frame{name: name, start: ts, shard: shard})
	}
	tr.events = append(tr.events, event{ph: 'B', name: name, ts: ts, shard: int32(shard)})
	tr.lastTS = ts
}

func (tr *track) fold(name string, dur time.Duration) {
	if len(tr.stack) == 0 {
		return
	}
	kids := tr.stack[len(tr.stack)-1].kids
	for i := range kids {
		if kids[i].Name == name {
			kids[i].Total += dur
			kids[i].Count++
			return
		}
	}
	tr.stack[len(tr.stack)-1].kids = append(kids, ChildStat{Name: name, Total: dur, Count: 1})
}

// Begin opens a span named name on the calling proc's track, stamped at
// the proc's current virtual time. group labels the process lane the
// track renders under (only the proc's first span decides it); shard >=
// 0 rides along as the span's "shard" argument, -1 means none. Begin,
// Next, End and Complete return at once on a nil tracer, so a layer
// that traces calls them unconditionally.
func (t *Tracer) Begin(p *sim.Proc, group, name string, shard int) {
	if t == nil {
		return
	}
	t.Spans++
	t.trackOf(p, group).push(name, p.Now(), shard)
}

// End closes the calling proc's innermost open span. A span closed with
// no parent left open is a top-level span and competes for the
// slowest-spans table.
func (t *Tracer) End(p *sim.Proc) {
	if t == nil {
		return
	}
	tr := t.byProc[p]
	if tr == nil || len(tr.stack) == 0 {
		panic("obs: End with no open span")
	}
	now := p.Now()
	f := &tr.stack[len(tr.stack)-1]
	name, start, shard, kids := f.name, f.start, f.shard, f.kids
	tr.stack = tr.stack[:len(tr.stack)-1]
	tr.events = append(tr.events, event{ph: 'E', name: name, ts: now, shard: -1})
	tr.lastTS = now
	if len(tr.stack) > 0 {
		tr.fold(name, now-start)
		return
	}
	t.offerSlow(SlowSpan{Name: name, Track: tr.group + "/" + tr.proc, Shard: shard, Start: start, Dur: now - start, Kids: append([]ChildStat(nil), kids...)})
}

// Next closes the current span and opens a sibling in its place — the
// transport uses it to walk a call through its send/queue/serve/recv
// phases without re-resolving the track.
func (t *Tracer) Next(p *sim.Proc, name string) {
	if t == nil {
		return
	}
	tr := t.byProc[p]
	if tr == nil || len(tr.stack) == 0 {
		panic("obs: Next with no open span")
	}
	now := p.Now()
	f := &tr.stack[len(tr.stack)-1]
	prev, start := f.name, f.start
	tr.events = append(tr.events, event{ph: 'E', name: prev, ts: now, shard: -1})
	f.name, f.start = name, now
	tr.events = append(tr.events, event{ph: 'B', name: name, ts: now, shard: -1})
	tr.lastTS = now
	// The finished phase folds into the span's parent, if any.
	if len(tr.stack) > 1 {
		kids := tr.stack[len(tr.stack)-2].kids
		for i := range kids {
			if kids[i].Name == prev {
				kids[i].Total += now - start
				kids[i].Count++
				tr.stack[len(tr.stack)-2].kids = kids
				t.Spans++
				return
			}
		}
		tr.stack[len(tr.stack)-2].kids = append(kids, ChildStat{Name: prev, Total: now - start, Count: 1})
	}
	t.Spans++
}

// Complete records a span retroactively: a Begin at start and an End at
// the proc's current time, in one call. It is for waits measured only
// once they finish (the row-lock acquire path): the waiter was parked
// for the whole [start, now] window, so its track gained no events in
// between and the appended pair keeps the track's timestamps monotonic.
func (t *Tracer) Complete(p *sim.Proc, group, name string, start time.Duration, shard int) {
	if t == nil {
		return
	}
	t.Spans++
	tr := t.trackOf(p, group)
	now := p.Now()
	tr.events = append(tr.events, event{ph: 'B', name: name, ts: start, shard: int32(shard)})
	tr.events = append(tr.events, event{ph: 'E', name: name, ts: now, shard: -1})
	tr.lastTS = now
	if len(tr.stack) > 0 {
		tr.fold(name, now-start)
		return
	}
	t.offerSlow(SlowSpan{Name: name, Track: tr.group + "/" + tr.proc, Shard: shard, Start: start, Dur: now - start})
}

// offerSlow keeps the slowest top-level spans, sorted by duration
// descending (ties break by start time then track, so the table is
// deterministic).
func (t *Tracer) offerSlow(s SlowSpan) {
	if len(t.slow) == slowKeep && !slower(s, t.slow[len(t.slow)-1]) {
		return
	}
	i := sort.Search(len(t.slow), func(i int) bool { return !slower(t.slow[i], s) })
	t.slow = append(t.slow, SlowSpan{})
	copy(t.slow[i+1:], t.slow[i:])
	t.slow[i] = s
	if len(t.slow) > slowKeep {
		t.slow = t.slow[:slowKeep]
	}
}

// slower orders slow spans: longer first, earlier first among equals.
func slower(a, b SlowSpan) bool {
	if a.Dur != b.Dur {
		return a.Dur > b.Dur
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Track < b.Track
}

// Slowest returns the up-to-n slowest top-level spans recorded so far.
func (t *Tracer) Slowest(n int) []SlowSpan {
	if n > len(t.slow) {
		n = len(t.slow)
	}
	return append([]SlowSpan(nil), t.slow[:n]...)
}

// FprintSlow writes the slow-op log: the up-to-max slowest top-level
// spans at or above threshold, each with its child-span breakdown.
func (t *Tracer) FprintSlow(w io.Writer, threshold time.Duration, max int) {
	n := 0
	for _, s := range t.slow {
		if s.Dur < threshold || n >= max {
			break
		}
		n++
		fmt.Fprintf(w, "%3d. %-14s %10.3fms at %10.3fms  %s", n, s.Name,
			ms(s.Dur), ms(s.Start), s.Track)
		if s.Shard >= 0 {
			fmt.Fprintf(w, " shard=%d", s.Shard)
		}
		fmt.Fprintln(w)
		for _, k := range s.Kids {
			fmt.Fprintf(w, "       %-14s %10.3fms (%d)\n", k.Name, ms(k.Total), k.Count)
		}
	}
	if n == 0 {
		fmt.Fprintf(w, "no spans at or above %v\n", threshold)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usec renders a virtual timestamp in the trace-event format's
// microsecond unit, with nanosecond precision kept as decimals.
func usec(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/1e3, 'f', 3, 64)
}

// WriteChrome exports the trace as Chrome trace-event JSON: one process
// per group label (client node, shard host), one thread per proc,
// balanced B/E duration events in virtual microseconds. Dangling spans
// (a background proc parked mid-span at the end of the run) are closed
// at their track's last event time, so the export is always balanced.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	for i, g := range t.groupOrder {
		emit(fmt.Sprintf(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%q}}`, i+1, g))
	}
	for _, tr := range t.tracks {
		pid := t.groups[tr.group]
		emit(fmt.Sprintf(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%q}}`, pid, tr.tid, tr.proc))
		for _, ev := range tr.events {
			if ev.ph == 'B' && ev.shard >= 0 {
				emit(fmt.Sprintf(`{"ph":"B","pid":%d,"tid":%d,"ts":%s,"name":%q,"args":{"shard":%d}}`,
					pid, tr.tid, usec(ev.ts), ev.name, ev.shard))
			} else {
				emit(fmt.Sprintf(`{"ph":"%c","pid":%d,"tid":%d,"ts":%s,"name":%q}`,
					ev.ph, pid, tr.tid, usec(ev.ts), ev.name))
			}
		}
		// Close any span still open when the run ended.
		for i := len(tr.stack) - 1; i >= 0; i-- {
			emit(fmt.Sprintf(`{"ph":"E","pid":%d,"tid":%d,"ts":%s,"name":%q}`,
				pid, tr.tid, usec(tr.lastTS), tr.stack[i].name))
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteJSONL exports one event per line, with the track spelled out —
// the stream tests consume.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, tr := range t.tracks {
		for _, ev := range tr.events {
			fmt.Fprintf(bw, `{"track":%q,"tid":%d,"ph":"%c","name":%q,"ts_us":%s`,
				tr.group+"/"+tr.proc, tr.tid, ev.ph, ev.name, usec(ev.ts))
			if ev.ph == 'B' && ev.shard >= 0 {
				fmt.Fprintf(bw, `,"shard":%d`, ev.shard)
			}
			bw.WriteString("}\n")
		}
	}
	return bw.Flush()
}

// Fingerprint returns the sha256 of the Chrome export: the same seed
// must yield the same fingerprint, which is the trace determinism
// contract tests pin.
func (t *Tracer) Fingerprint() string {
	h := sha256.New()
	if err := t.WriteChrome(h); err != nil {
		panic(err) // hash.Hash never errors
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Events reports the total event count across tracks (tests).
func (t *Tracer) Events() int {
	n := 0
	for _, tr := range t.tracks {
		n += len(tr.events)
	}
	return n
}

// Tracks reports the number of thread tracks materialized (tests).
func (t *Tracer) Tracks() int { return len(t.tracks) }
