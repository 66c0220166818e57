package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"cofs/internal/obs"
)

// The latency budget: the benchmark's own spans (Mount operation,
// core.FS call, pfs.Client call) and the spans of the program's tracer
// (op.*, rpc.*, lock.wait, 2pc.*, wal.commit) are joined per simulated
// process, nested by interval, and folded into self times — a span's
// duration minus what its children cover. A simulated process runs one
// thing at a time and the program's server-side spans run on the
// calling process, so on one process track spans either nest or are
// disjoint and the self times sum to the operation's latency exactly.

// budgetCategory maps a span to the per-layer metric its self time
// belongs to; "" sends it to budget.residual_ms.
func budgetCategory(layer uint8, name string) string {
	switch layer {
	case layerOp:
		return "vfs.self_ms"
	case layerCore:
		return "core.client_self_ms"
	case layerPFS:
		return "pfs.under_ms"
	}
	switch {
	case strings.HasPrefix(name, "op."):
		return "core.op_self_ms"
	case name == "rpc.send":
		return "rpc.send_ms"
	case name == "rpc.queue":
		return "rpc.queue_ms"
	case name == "rpc.serve":
		return "rpc.serve_self_ms"
	case name == "rpc.recv":
		return "rpc.recv_ms"
	case name == "lock.wait":
		return "lock.wait_ms"
	case strings.HasPrefix(name, "2pc."):
		return "core.2pc_ms"
	case name == "wal.commit":
		return "mdb.wal_ms"
	}
	return ""
}

// budgetLines are the categories in the order they are reported; with
// budget.residual_ms they sum to vt.op_ms_mean.
var budgetLines = []string{
	"vfs.self_ms", "core.client_self_ms", "core.op_self_ms", "core.2pc_ms",
	"rpc.send_ms", "rpc.queue_ms", "rpc.serve_self_ms", "rpc.recv_ms",
	"lock.wait_ms", "mdb.wal_ms", "pfs.under_ms",
}

// budget is the folded result of one traced pass.
type budget struct {
	Self      map[string]time.Duration // category -> total self time
	Residual  time.Duration            // self time of spans no category claims
	Total     time.Duration            // summed duration of the operation spans
	Ops       int
	Crossings int // spans that overlapped a neighbour without nesting
	// FlushBusy is the summed duration of wal.flush spans per shard
	// host: they run on background processes, off the operations' path.
	FlushBusy map[string]time.Duration
}

// interval is one span prepared for the fold.
type interval struct {
	start, end time.Duration
	layer      uint8
	name       string
}

// traceLine is one event of obs.Tracer.WriteJSONL.
type traceLine struct {
	Track string  `json:"track"`
	TID   int     `json:"tid"`
	Ph    string  `json:"ph"`
	Name  string  `json:"name"`
	TsUs  float64 `json:"ts_us"`
}

// parseTraceLine decodes one JSONL event. Stamps are microseconds with
// three decimals, so rounding to nanoseconds is exact.
func parseTraceLine(line []byte) (track string, tid int, ph byte, name string, ts time.Duration, err error) {
	var l traceLine
	if err = json.Unmarshal(line, &l); err != nil {
		return "", 0, 0, "", 0, fmt.Errorf("trace line %q: %w", line, err)
	}
	if len(l.Ph) != 1 {
		return "", 0, 0, "", 0, fmt.Errorf("trace line %q: bad phase", line)
	}
	return l.Track, l.TID, l.Ph[0], l.Name, time.Duration(math.Round(l.TsUs * 1000)), nil
}

// foldBudget reads the program's trace back through its JSONL export,
// joins it with the benchmark's spans and folds both into the budget.
// Only what lies inside an operation span counts; [from, to] bounds the
// flush accounting to the measured phases.
func foldBudget(tr *obs.Tracer, log *spanLog, from, to time.Duration) (*budget, error) {
	b := &budget{Self: map[string]time.Duration{}, FlushBusy: map[string]time.Duration{}}
	own := make(map[string]*procSpans, len(log.procs))
	for _, ps := range log.procs {
		own[ps.name] = ps
	}
	folded := map[string]bool{}

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := tr.WriteJSONL(pw)
		done <- err
		pw.CloseWithError(err)
	}()

	// Events of one track are contiguous in the export.
	var (
		curTID   = -1
		curTrack string
		open     []interval // stack of B events waiting for their E
		spans    []interval // completed spans of the current track
	)
	flush := func() {
		if curTID < 0 {
			return
		}
		group, proc, _ := strings.Cut(curTrack, "/")
		switch {
		case own[proc] != nil:
			b.foldTrack(own[proc], spans)
			folded[proc] = true
		case proc == "mdb.logflush":
			for _, s := range spans {
				if s.name == "wal.flush" && s.start >= from && s.end <= to {
					b.FlushBusy[group] += s.end - s.start
				}
			}
		}
		open, spans = open[:0], spans[:0]
	}
	sc := bufio.NewScanner(pr)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var perr error
	for sc.Scan() {
		track, tid, ph, name, ts, err := parseTraceLine(sc.Bytes())
		if err != nil {
			perr = err
			break
		}
		if tid != curTID {
			flush()
			curTID, curTrack = tid, track
		}
		switch ph {
		case 'B':
			open = append(open, interval{start: ts, layer: layerTracer, name: name})
		case 'E':
			if len(open) == 0 {
				perr = fmt.Errorf("trace track %s: end of %s without a begin", track, name)
				break
			}
			s := open[len(open)-1]
			open = open[:len(open)-1]
			s.end = ts
			spans = append(spans, s)
		}
		if perr != nil {
			break
		}
	}
	if perr == nil {
		perr = sc.Err()
	}
	if perr != nil {
		pr.CloseWithError(perr)
		<-done
		return nil, perr
	}
	flush()
	if err := <-done; err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	// Streams that opened no program span at all still have a budget.
	for _, ps := range log.procs {
		if !folded[ps.name] {
			b.foldTrack(ps, nil)
		}
	}
	return b, nil
}

// foldTrack nests the spans of one process by interval and adds their
// self times to the budget.
func (b *budget) foldTrack(ps *procSpans, traced []interval) {
	all := make([]interval, 0, len(ps.spans)+len(traced))
	for _, s := range ps.spans {
		all = append(all, interval{s.Start, s.End, s.Layer, s.Name})
	}
	all = append(all, traced...)
	// Parents first: earlier start, then later end, then outer layer.
	sort.SliceStable(all, func(i, j int) bool {
		a, c := &all[i], &all[j]
		if a.start != c.start {
			return a.start < c.start
		}
		if a.end != c.end {
			return a.end > c.end
		}
		return a.layer < c.layer
	})
	type frame struct {
		interval
		kids time.Duration
	}
	var stack []frame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		self := f.end - f.start - f.kids
		if cat := budgetCategory(f.layer, f.name); cat != "" {
			b.Self[cat] += self
		} else {
			b.Residual += self
		}
	}
	for _, s := range all {
		for len(stack) > 0 && s.end > stack[len(stack)-1].end {
			if s.start < stack[len(stack)-1].end {
				b.Crossings++
			}
			pop()
		}
		if len(stack) == 0 {
			if s.layer != layerOp {
				continue // set-up, epilogue or check traffic
			}
			b.Ops++
			b.Total += s.end - s.start
		} else {
			stack[len(stack)-1].kids += s.end - s.start
		}
		stack = append(stack, frame{interval: s})
	}
	for len(stack) > 0 {
		pop()
	}
}

// writeSpans writes the benchmark's own spans as JSONL and as Chrome
// trace-event JSON (one thread per simulated process).
func writeSpans(log *spanLog, jsonl, chrome io.Writer) error {
	jw, cw := bufio.NewWriter(jsonl), bufio.NewWriter(chrome)
	cw.WriteString("{\"traceEvents\":[\n")
	first := true
	for tid, ps := range log.procs {
		for _, s := range ps.spans {
			fmt.Fprintf(jw, `{"id":%d,"parent":%d,"op":%d,"layer":%q,"name":%q,"proc":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.ID, s.Parent, s.Op, layerNames[s.Layer], s.Name, ps.name, int64(s.Start), int64(s.End))
			if !first {
				cw.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(cw, `{"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"name":%q}`,
				tid+1, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, layerNames[s.Layer]+"."+s.Name)
		}
	}
	cw.WriteString("\n]}\n")
	if err := jw.Flush(); err != nil {
		return err
	}
	return cw.Flush()
}
