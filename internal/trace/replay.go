package trace

import (
	"fmt"
	"sort"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/vfs"
)

// Target is the mounted file system under test: one mount per node plus
// the simulation environment driving them. Stream (node, pid) issues its
// operations on Mounts[node] as cluster.Ctx(node, pid).
type Target struct {
	Env    *sim.Env
	Mounts []*vfs.Mount
}

// ReplayOptions tunes Replay.
type ReplayOptions struct {
	// Timed honours each operation's At offset (streams sleep between
	// operations, reproducing the recorded rhythm). When false, every
	// stream issues its operations back-to-back — the as-fast-as-
	// possible mode that exposes the file system's saturation
	// behaviour.
	Timed bool
}

// ReplayResult reports a replay run.
type ReplayResult struct {
	// PerKind holds a latency summary per operation kind.
	PerKind map[Kind]*stats.Summary
	// Elapsed is virtual time from replay start to the last stream
	// finishing.
	Elapsed time.Duration
	// Ops is the number of operations issued; Errors counts failures.
	Ops    int
	Errors int
	// FirstErr preserves the first failure for diagnostics.
	FirstErr error
}

// OpRate returns completed operations per virtual second.
func (r *ReplayResult) OpRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops-r.Errors) / r.Elapsed.Seconds()
}

// Report renders a per-kind latency table.
func (r *ReplayResult) Report() string {
	kinds := make([]Kind, 0, len(r.PerKind))
	for k := range r.PerKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	out := fmt.Sprintf("%-10s%8s%12s%12s%12s\n", "op", "count", "mean(ms)", "p95(ms)", "max(ms)")
	for _, k := range kinds {
		s := r.PerKind[k]
		out += fmt.Sprintf("%-10s%8d%12.3f%12.3f%12.3f\n",
			k.String(), s.N(), s.MeanMs(),
			float64(s.Percentile(95))/1e6, float64(s.Max())/1e6)
	}
	out += fmt.Sprintf("total: %d ops, %d errors, %.0f ops/s over %v\n",
		r.Ops, r.Errors, r.OpRate(), r.Elapsed)
	return out
}

// Replay drives the target from the trace. Mkdir operations replay as
// mkdir -p during a serial prologue (directory skeletons are setup, not
// the measured workload — the paper's benchmarks likewise pre-create
// the shared directory); a prologue failure ends the replay and is
// returned. The rest play as one simulated process per (node, pid)
// stream, spawned in (node, pid) order, operations in recorded order.
// A failed operation is counted and its stream goes on (recorded
// applications often race deletes).
func Replay(t Target, tr *Trace, opts ReplayOptions) (*ReplayResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if n := tr.Nodes(); n > len(t.Mounts) {
		return nil, fmt.Errorf("trace: needs %d nodes, target has %d mounts", n, len(t.Mounts))
	}
	res := &ReplayResult{PerKind: make(map[Kind]*stats.Summary)}

	// Prologue: directory skeleton, serial, unmeasured.
	var dirs, rest []Op
	for _, op := range tr.Ops {
		if op.Kind == Mkdir {
			dirs = append(dirs, op)
		} else {
			rest = append(rest, op)
		}
	}
	var prologueErr error
	t.Env.Spawn("trace.prologue", func(p *sim.Proc) {
		for _, op := range dirs {
			ctx := cluster.Ctx(op.Node, op.PID)
			if err := t.Mounts[op.Node].MkdirAll(p, ctx, op.Path, op.Mode); err != nil && err != vfs.ErrExist {
				prologueErr = fmt.Errorf("trace: prologue: %w", opError(op, err))
				return
			}
		}
	})
	t.Env.MustRun()
	if prologueErr != nil {
		return nil, prologueErr
	}

	streams := streamsOf(rest)
	sort.Slice(streams, func(i, j int) bool {
		if streams[i].node != streams[j].node {
			return streams[i].node < streams[j].node
		}
		return streams[i].pid < streams[j].pid
	})
	start := t.Env.Now()
	end := play(t, streams, opts.Timed, false, func(op Op, d time.Duration, err error) {
		kindSummary(res.PerKind, op.Kind).Add(d)
		res.Ops++
		if err != nil {
			res.Errors++
			if res.FirstErr == nil {
				res.FirstErr = opError(op, err)
			}
		}
	})
	res.Elapsed = end - start
	return res, nil
}

// Phase is one barrier-delimited step of a generated run, such as one
// of mdtest's. An unnamed phase is set-up or clean-up: Run runs it but
// does not report it.
type Phase struct {
	Name string
	Ops  []Op
}

// PhaseNames lists the names of the named phases, in order.
func PhaseNames(phases []Phase) []string {
	var names []string
	for _, ph := range phases {
		if ph.Name != "" {
			names = append(names, ph.Name)
		}
	}
	return names
}

// Result reports a phased run, per named phase.
type Result struct {
	// PerPhase maps phase name to a latency summary over its operations.
	PerPhase map[string]*stats.Summary
	// PerKind maps operation kind to a latency summary over the
	// operations of that kind in every named phase.
	PerKind map[Kind]*stats.Summary
	// PhaseTime is the virtual time of each phase, from its start to
	// its last stream's end.
	PhaseTime map[string]time.Duration
	// PhaseOps counts operations per phase.
	PhaseOps map[string]int
}

// Rate returns operations per second for a phase.
func (r *Result) Rate(phase string) float64 {
	d := r.PhaseTime[phase]
	if d <= 0 {
		return 0
	}
	return float64(r.PhaseOps[phase]) / d.Seconds()
}

// TotalOps sums the operations of every named phase.
func (r *Result) TotalOps() int {
	n := 0
	for _, ops := range r.PhaseOps {
		n += ops
	}
	return n
}

// MeanMs returns the mean operation latency of a phase in milliseconds.
func (r *Result) MeanMs(phase string) float64 {
	s, ok := r.PerPhase[phase]
	if !ok {
		return 0
	}
	return s.MeanMs()
}

// Run drives the target through the phases in order, each phase a
// barrier: one simulated process per (node, pid) stream, spawned in
// the order the streams first appear, operations back to back, and
// the next phase starts once every stream is done. A named phase is
// timed from its start to its last stream's end, so trailing events
// (log flush timers and the like) do not count. hook, when non-nil,
// runs as its own process beside the streams of every named phase,
// spawned before them and awaited by the barrier: mid-run triggers
// such as a reshard ride it. Both summaries of an operation, its
// phase's and its kind's, see the samples in completion order. The
// first failing operation ends its stream, and Run returns that error
// once the phase's barrier is reached.
func Run(t Target, phases []Phase, hook func(p *sim.Proc, phase string)) (*Result, error) {
	for _, ph := range phases {
		for _, op := range ph.Ops {
			if op.Node < 0 || op.PID < 0 || op.Node >= len(t.Mounts) {
				return nil, fmt.Errorf("trace: phase %q: stream node=%d pid=%d outside the target's %d mounts", ph.Name, op.Node, op.PID, len(t.Mounts))
			}
		}
	}
	res := &Result{
		PerPhase:  make(map[string]*stats.Summary),
		PerKind:   make(map[Kind]*stats.Summary),
		PhaseTime: make(map[string]time.Duration),
		PhaseOps:  make(map[string]int),
	}
	for _, ph := range phases {
		sum := &stats.Summary{}
		if ph.Name != "" && hook != nil {
			name := ph.Name
			t.Env.Spawn("hook."+name, func(p *sim.Proc) { hook(p, name) })
		}
		var err error
		start := t.Env.Now()
		end := play(t, streamsOf(ph.Ops), false, true, func(op Op, d time.Duration, opErr error) {
			switch {
			case opErr != nil:
				if err == nil {
					err = opError(op, opErr)
				}
			case ph.Name != "":
				sum.Add(d)
				kindSummary(res.PerKind, op.Kind).Add(d)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("trace: phase %q: %w", ph.Name, err)
		}
		if ph.Name != "" {
			res.PerPhase[ph.Name] = sum
			res.PhaseTime[ph.Name] = end - start
			res.PhaseOps[ph.Name] = len(ph.Ops)
		}
	}
	return res, nil
}

// kindSummary returns the kind's summary in m, adding it on first use.
func kindSummary(m map[Kind]*stats.Summary, k Kind) *stats.Summary {
	sum, ok := m[k]
	if !ok {
		sum = &stats.Summary{}
		m[k] = sum
	}
	return sum
}

// stream is the operations of one (node, pid) pair, in order: one
// simulated process plays it.
type stream struct {
	node, pid int
	ops       []Op
}

// streamsOf groups ops into streams, in the order each stream first
// appears. A stream whose operations are contiguous in ops (every
// generator's phases) shares ops' backing array.
func streamsOf(ops []Op) []stream {
	var out []stream
	index := make(map[[2]int]int)
	for j := 0; j < len(ops); {
		node, pid := ops[j].Node, ops[j].PID
		k := j + 1
		for k < len(ops) && ops[k].Node == node && ops[k].PID == pid {
			k++
		}
		run := ops[j:k:k] // full cap: appending to it copies
		if i, ok := index[[2]int{node, pid}]; ok {
			out[i].ops = append(out[i].ops, run...)
		} else {
			index[[2]int{node, pid}] = len(out)
			out = append(out, stream{node: node, pid: pid, ops: run})
		}
		j = k
	}
	return out
}

// play spawns one process per stream, in order, runs the simulation
// until everything spawned is done (a barrier) and returns the instant
// the last stream finished. It is the one loop that issues a stream's
// operations. Each operation's latency and error go to done, inline, so
// it sees them in completion order. timed paces every stream by its
// operations' At offsets from the call: a stream starts at its first
// operation's At, and a later operation waits for its At only if the
// stream's clock has not reached it yet. failFast ends a stream at its
// first error.
func play(t Target, streams []stream, timed, failFast bool, done func(op Op, d time.Duration, err error)) time.Duration {
	start := t.Env.Now()
	end := start
	for _, s := range streams {
		m, ctx := t.Mounts[s.node], cluster.Ctx(s.node, s.pid)
		var delay time.Duration
		if timed {
			delay = s.ops[0].At
		}
		t.Env.SpawnAfter(fmt.Sprintf("trace.n%d.p%d", s.node, s.pid), delay, func(p *sim.Proc) {
			for _, op := range s.ops {
				if wait := start + op.At - p.Now(); timed && wait > 0 {
					p.Sleep(wait)
				}
				t0 := p.Now()
				err := Do(p, m, ctx, op)
				done(op, p.Now()-t0, err)
				if err != nil && failFast {
					break
				}
			}
			end = max(end, p.Now())
		})
	}
	t.Env.MustRun()
	return end
}

// Race plays ops as racing streams and returns each op's error, in the
// order of ops. The ops of one stream (node, pid) run in order on one
// process, the streams spawned in the order they first appear; it is a
// timed play, so a stream starts at its first op's At after the call,
// and a failed op does not end its stream. It drains the simulation.
func Race(t Target, ops []Op) []error {
	// Each stream's ops complete in order, so each stream's indices into
	// ops, in order, say where its next error goes.
	pending := make(map[[2]int][]int)
	for i, op := range ops {
		k := [2]int{op.Node, op.PID}
		pending[k] = append(pending[k], i)
	}
	errs := make([]error, len(ops))
	play(t, streamsOf(ops), true, false, func(op Op, _ time.Duration, err error) {
		k := [2]int{op.Node, op.PID}
		errs[pending[k][0]] = err
		pending[k] = pending[k][1:]
	})
	return errs
}

// opError names the failed operation.
func opError(op Op, err error) error {
	return fmt.Errorf("%s %s (node %d): %w", op.Kind, op.Path, op.Node, err)
}

// Do issues one operation against a mount.
func Do(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, op Op) error {
	switch op.Kind {
	case Create:
		f, err := m.Create(p, ctx, op.Path, op.Mode)
		if err != nil {
			return err
		}
		return f.Close(p)
	case WriteFile:
		f, err := m.Create(p, ctx, op.Path, op.Mode)
		if err != nil {
			return err
		}
		if op.Bytes > 0 {
			if _, werr := f.WriteAt(p, 0, op.Bytes); werr != nil {
				f.Close(p)
				return werr
			}
		}
		return f.Close(p)
	case ReadFile:
		f, err := m.Open(p, ctx, op.Path, vfs.OpenRead)
		if err != nil {
			return err
		}
		n := op.Bytes
		if n == 0 {
			attr, serr := m.Stat(p, ctx, op.Path)
			if serr != nil {
				f.Close(p)
				return serr
			}
			n = attr.Size
		}
		if n > 0 {
			if _, rerr := f.ReadAt(p, 0, n); rerr != nil {
				f.Close(p)
				return rerr
			}
		}
		return f.Close(p)
	case Stat:
		_, err := m.Stat(p, ctx, op.Path)
		return err
	case Utime:
		_, err := m.Utime(p, ctx, op.Path)
		return err
	case Chmod:
		_, err := m.Chmod(p, ctx, op.Path, op.Mode)
		return err
	case OpenClose:
		f, err := m.Open(p, ctx, op.Path, vfs.OpenRead)
		if err != nil {
			return err
		}
		return f.Close(p)
	case Unlink:
		return m.Unlink(p, ctx, op.Path)
	case Rmdir:
		return m.Rmdir(p, ctx, op.Path)
	case Rename:
		return m.Rename(p, ctx, op.Path, op.Path2)
	case Readdir:
		_, err := m.Readdir(p, ctx, op.Path)
		return err
	case Link:
		return m.Link(p, ctx, op.Path, op.Path2)
	case Symlink:
		return m.Symlink(p, ctx, op.Path, op.Path2)
	case Mkdir:
		return m.MkdirAll(p, ctx, op.Path, op.Mode)
	default:
		return fmt.Errorf("trace: unhandled kind %v", op.Kind)
	}
}
