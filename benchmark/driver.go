package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// system is one freshly built stack a trace is replayed on: the testbed
// with the bare PFS mounts and, unless bare, a COFS deployment over it.
type system struct {
	tb     *cluster.Testbed
	d      *core.Deployment // nil for the bare replay
	mounts []*vfs.Mount     // what the streams issue operations through
	// drop filters operations out of every replay (the bare replay).
	drop func(trace.Op) bool
	// Tracing state of a traced pass; nil otherwise.
	log      *spanLog
	coreDecs []*timedFS
	pfsDecs  []*timedFS
}

// build assembles the stack. A traced build turns the program's tracer
// and metrics on and rebuilds the mounts over timing decorators: the
// bare mount of every node before core.Deploy (so core.FS calls the
// underlying file system through it) and the COFS mount after.
func build(w *workload, seed int64, traced, bare bool) *system {
	cfg := w.Cfg
	cfg.COFS.Trace, cfg.COFS.Metrics = traced, traced
	sys := &system{tb: cluster.New(seed, numNodes, cfg)}
	if bare {
		sys.mounts = sys.tb.Mounts
		// pfs.Client.Readdir nil-derefs when an entry is unlinked while
		// it sleeps in ensureDirBlock; see README "Exclusions".
		sys.drop = func(o trace.Op) bool { return o.Kind == trace.Readdir }
		return sys
	}
	if traced {
		sys.log = newSpanLog()
		for i, c := range sys.tb.Clients {
			dec := newTimedFS(c, sys.log, layerPFS)
			sys.pfsDecs = append(sys.pfsDecs, dec)
			sys.tb.Mounts[i] = vfs.NewMount(dec, params.FUSEParams{})
		}
	}
	sys.d = core.Deploy(sys.tb, nil)
	if traced {
		for i, fs := range sys.d.FSs {
			dec := newTimedFS(fs, sys.log, layerCore)
			sys.coreDecs = append(sys.coreDecs, dec)
			sys.d.Mounts[i] = vfs.NewMount(dec, cfg.FUSE)
		}
	}
	sys.mounts = sys.d.Mounts
	return sys
}

// opSample is the outcome of one replayed operation.
type opSample struct {
	Kind trace.Kind
	Lat  time.Duration
}

// replayResult is what one concurrent replay of a trace produced.
type replayResult struct {
	Samples  []opSample    // stream-major, in stream order
	Start    time.Duration // virtual time the streams started
	End      time.Duration // virtual time the last stream finished
	Failed   int
	FirstErr error
}

// replay drives the system from the trace, closed loop: one simulated
// process per (node, pid) stream, each issuing its next operation when
// the previous one returns. With prologue set, Mkdir operations are
// replayed first by a single process (set-up traces name directories
// other streams populate). When measured and tracing, every operation
// is recorded as a span of layerOp.
func (sys *system) replay(label string, tr *trace.Trace, prologue, measured bool) replayResult {
	env := sys.tb.Env
	var res replayResult
	fail := func(o trace.Op, err error) {
		res.Failed++
		if res.FirstErr == nil {
			res.FirstErr = fmt.Errorf("%s: %s %s (node %d): %w", label, o.Kind, o.Path, o.Node, err)
		}
	}
	if prologue {
		env.Spawn("bench."+label+".dirs", func(p *sim.Proc) {
			for _, o := range tr.Ops {
				if o.Kind == trace.Mkdir {
					if err := replayOp(p, sys.mounts[o.Node], cluster.Ctx(o.Node, o.PID), o); err != nil {
						fail(o, err)
					}
				}
			}
		})
		env.MustRun()
	}

	streams := tr.Streams()
	keys := make([][2]int, 0, len(streams))
	for k := range streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	res.Start = env.Now()
	res.End = res.Start
	perStream := make([][]opSample, len(keys))
	first := 0 // index of the stream's first operation among all samples
	for si, key := range keys {
		si, first, ops := si, first, streams[key]
		m, ctx := sys.mounts[key[0]], cluster.Ctx(key[0], key[1])
		env.Spawn(fmt.Sprintf("bench.%s.n%02d.p%d", label, key[0], key[1]), func(p *sim.Proc) {
			var ps *procSpans
			if measured && sys.log != nil {
				ps = sys.log.of(p)
			}
			out := make([]opSample, 0, len(ops))
			for _, o := range ops {
				if (prologue && o.Kind == trace.Mkdir) || (sys.drop != nil && sys.drop(o)) {
					continue
				}
				var idx int32
				if ps != nil {
					ps.op = int32(first + len(out))
					_, idx = sys.log.begin(p, layerOp, o.Kind.String())
				}
				t0 := p.Now()
				err := replayOp(p, m, ctx, o)
				out = append(out, opSample{o.Kind, p.Now() - t0})
				if ps != nil {
					ps.end(p, idx)
				}
				if err != nil {
					fail(o, err)
				}
			}
			perStream[si] = out
			if p.Now() > res.End {
				res.End = p.Now()
			}
		})
		first += len(ops)
	}
	env.MustRun()
	for _, out := range perStream {
		res.Samples = append(res.Samples, out...)
	}
	return res
}

var errShort = errors.New("short transfer")

// replayOp issues one trace operation against a mount.
func replayOp(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, o trace.Op) error {
	switch o.Kind {
	case trace.Mkdir:
		return m.Mkdir(p, ctx, o.Path, o.Mode)
	case trace.Create, trace.WriteFile:
		f, err := m.Create(p, ctx, o.Path, o.Mode)
		if err != nil {
			return err
		}
		if o.Bytes > 0 {
			n, werr := f.WriteAt(p, 0, o.Bytes)
			if werr == nil && n != o.Bytes {
				werr = errShort
			}
			if werr != nil {
				_ = f.Close(p) // the write error is the one to report
				return werr
			}
		}
		return f.Close(p)
	case trace.ReadFile:
		f, err := m.Open(p, ctx, o.Path, vfs.OpenRead)
		if err != nil {
			return err
		}
		n, rerr := f.ReadAt(p, 0, o.Bytes)
		if rerr == nil && n != o.Bytes {
			rerr = errShort
		}
		if rerr != nil {
			_ = f.Close(p) // the read error is the one to report
			return rerr
		}
		return f.Close(p)
	case trace.Stat:
		_, err := m.Stat(p, ctx, o.Path)
		return err
	case trace.Utime:
		_, err := m.Utime(p, ctx, o.Path)
		return err
	case trace.OpenClose:
		f, err := m.Open(p, ctx, o.Path, vfs.OpenRead)
		if err != nil {
			return err
		}
		return f.Close(p)
	case trace.Unlink:
		return m.Unlink(p, ctx, o.Path)
	case trace.Rmdir:
		return m.Rmdir(p, ctx, o.Path)
	case trace.Rename:
		return m.Rename(p, ctx, o.Path, o.Path2)
	case trace.Readdir:
		_, err := m.Readdir(p, ctx, o.Path)
		return err
	default:
		return fmt.Errorf("benchmark does not replay %v", o.Kind)
	}
}

// Operation classes of the end-to-end split.
func isRead(k trace.Kind) bool {
	switch k {
	case trace.Stat, trace.OpenClose, trace.Readdir, trace.ReadFile:
		return true
	}
	return false
}

// vtStats are the virtual-time results of the measured phases of one
// pass. Everything in it repeats exactly for a seed.
type vtStats struct {
	Ops      int
	Makespan time.Duration
	Final    time.Duration // virtual clock when the measured phases drained

	OpsPerS float64
	MeanMs  float64
	P50Ms   float64
	P99Ms   float64

	ReadOps, WriteOps       int
	ReadMeanMs, WriteMeanMs float64
	KindOps                 map[string]int
	KindMeanMs              map[string]float64
	DataMBps                float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func meanMs(sum time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(time.Millisecond)
}

// percentile is the nearest-rank percentile of sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func summarize(phases []replayResult, dataBytes int64) vtStats {
	v := vtStats{KindOps: map[string]int{}, KindMeanMs: map[string]float64{}}
	var lats []time.Duration
	var sum, readSum, writeSum time.Duration
	kindSum := map[string]time.Duration{}
	for _, ph := range phases {
		v.Makespan += ph.End - ph.Start
		for _, s := range ph.Samples {
			lats = append(lats, s.Lat)
			sum += s.Lat
			name := s.Kind.String()
			v.KindOps[name]++
			kindSum[name] += s.Lat
			if isRead(s.Kind) {
				v.ReadOps++
				readSum += s.Lat
			} else {
				v.WriteOps++
				writeSum += s.Lat
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	v.Ops = len(lats)
	v.OpsPerS = float64(v.Ops) / v.Makespan.Seconds()
	v.MeanMs = meanMs(sum, v.Ops)
	v.P50Ms = ms(percentile(lats, 0.50))
	v.P99Ms = ms(percentile(lats, 0.99))
	v.ReadMeanMs = meanMs(readSum, v.ReadOps)
	v.WriteMeanMs = meanMs(writeSum, v.WriteOps)
	for name, n := range v.KindOps {
		v.KindMeanMs[name] = meanMs(kindSum[name], n)
	}
	v.DataMBps = float64(dataBytes) / 1e6 / v.Makespan.Seconds()
	return v
}

// hostStats are the host-side costs of one pass.
type hostStats struct {
	SetupS     float64 // testbed + Deploy + pre-population
	WallS      float64 // measured phases only
	Mallocs    uint64  // heap allocations during the measured phases
	LiveHeapMB float64 // HeapAlloc after GC at the end of the first measured phase
}

// pass is everything one build-replay-check cycle produced.
type pass struct {
	VT       vtStats
	Host     hostStats
	Failed   int      // operations that returned an unexpected error
	Problems []string // failed output checks
	// Traced pass only.
	Layers    map[string]float64 // counter deltas over the measured phases
	CPUShares map[string]float64 // host CPU share per package over the measured phases
	RecoverMs float64
	sys       *system
	phases    []replayResult
}

// passOptions selects the variant of a pass.
type passOptions struct {
	Traced bool // program tracer and metrics on, decorators in, CPU profile taken
	Bare   bool // replay on the bare PFS mounts, no COFS
}

// runPass builds a fresh system, replays the workload on it and checks
// what it left behind.
func runPass(w *workload, seed int64, opt passOptions) *pass {
	ps := &pass{}
	note := func(r replayResult) {
		ps.Failed += r.Failed
		if r.FirstErr != nil {
			ps.Problems = append(ps.Problems, r.FirstErr.Error())
		}
	}

	runtime.GC()
	t0 := time.Now()
	sys := build(w, seed, opt.Traced, opt.Bare)
	ps.sys = sys
	note(sys.replay("setup", w.Setup, true, false))
	ps.Host.SetupS = time.Since(t0).Seconds()

	var before map[string]float64
	if opt.Traced {
		before = sys.counters()
	}
	var mem runtime.MemStats
	var stopCPU func() (map[string]float64, error)
	if opt.Traced {
		var err error
		if stopCPU, err = startCPUProfile(); err != nil {
			ps.Problems = append(ps.Problems, "cpu profile: "+err.Error())
		}
	}
	for i, ph := range w.Phases {
		runtime.ReadMemStats(&mem)
		m0, t1 := mem.Mallocs, time.Now()
		r := sys.replay(ph.Name, ph.Trace, false, true)
		ps.Host.WallS += time.Since(t1).Seconds()
		runtime.ReadMemStats(&mem)
		ps.Host.Mallocs += mem.Mallocs - m0
		note(r)
		ps.phases = append(ps.phases, r)
		if i == 0 {
			// The first phase ends at the workload's high-water point:
			// every file it creates exists, nothing is removed yet.
			runtime.GC()
			runtime.ReadMemStats(&mem)
			ps.Host.LiveHeapMB = float64(mem.HeapAlloc) / (1 << 20)
		}
	}
	if stopCPU != nil {
		var err error
		if ps.CPUShares, err = stopCPU(); err != nil {
			ps.Problems = append(ps.Problems, err.Error())
		}
	}
	ps.VT = summarize(ps.phases, w.DataBytes)
	ps.VT.Final = sys.tb.Env.Now()
	if opt.Traced {
		after := sys.counters()
		ps.Layers = make(map[string]float64, len(after))
		for k, v := range after {
			ps.Layers[k] = v - before[k]
		}
	}

	if w.Epilogue != nil {
		note(sys.replay("epilogue", w.Epilogue, true, false))
	}
	if w.CrashAfter && sys.d != nil {
		// The replay above drained, so every commit has been flushed:
		// all of it must come back.
		sys.d.Service.Crash()
		sys.tb.Env.Spawn("bench.recover", func(p *sim.Proc) {
			t := p.Now()
			sys.d.Service.Recover(p)
			ps.RecoverMs = ms(p.Now() - t)
		})
		sys.tb.Env.MustRun()
	}
	ps.Problems = append(ps.Problems, sys.check(w)...)
	return ps
}

// check verifies the state the replay left: every survivor stats with
// the expected type and size, every removed path is gone, and the
// system's own consistency checkers are clean.
func (sys *system) check(w *workload) []string {
	var problems []string
	bad := func(format string, args ...any) {
		if len(problems) < 8 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	paths := make([]string, 0, len(w.Survivors))
	for path := range w.Survivors {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	sys.tb.Env.Spawn("bench.check", func(p *sim.Proc) {
		// Check from a node that did not create most of the files.
		node := numNodes - 1
		m, ctx := sys.mounts[node], cluster.Ctx(node, 99)
		for _, path := range paths {
			want := w.Survivors[path]
			attr, err := m.Stat(p, ctx, path)
			switch {
			case err != nil:
				bad("survivor %s: %v", path, err)
			case attr.Type != want.Type || attr.Size != want.Size:
				bad("survivor %s: is %v of %d bytes, want %v of %d", path, attr.Type, attr.Size, want.Type, want.Size)
			}
		}
		for _, path := range w.Gone {
			if _, err := m.Stat(p, ctx, path); err != vfs.ErrNotExist {
				bad("removed path %s: stat returned %v, want ErrNotExist", path, err)
			}
		}
		if sys.d != nil {
			if rep := core.Fsck(p, sys.d.Service, sys.tb.Mounts[0]); !rep.OK() {
				bad("fsck: %s", rep)
			}
		}
	})
	sys.tb.Env.MustRun()
	if err := sys.tb.FS.CheckInvariants(); err != nil {
		bad("pfs invariants: %v", err)
	}
	if sys.d != nil {
		if err := sys.d.Service.CheckInvariants(); err != nil {
			bad("mds invariants: %v", err)
		}
		if err := sys.d.CheckCacheCoherence(sys.tb.Env.Now()); err != nil {
			bad("cache coherence: %v", err)
		}
	}
	return problems
}

// counters snapshots every counter the layers export.
func (sys *system) counters() map[string]float64 {
	c := map[string]float64{}
	tb, d := sys.tb, sys.d
	cs := d.Counters()
	for _, name := range cs.Names() {
		c[name] = float64(cs.Get(name))
	}
	for i, s := range d.Service.Shards() {
		c[fmt.Sprintf("shard%d.requests", i)] = float64(s.Stats.Requests)
		c["mdb.commits"] += float64(s.DB.Commits)
		c["mdb.flushes"] += float64(s.DB.LogFlushes)
		c["mdb.records"] += float64(s.DB.CommitSeq())
		c["disk.mds.syncs"] += float64(s.Disk.Syncs)
		c["disk.mds.writes"] += float64(s.Disk.Writes)
	}
	c["pfs.meta_rpcs"] = float64(tb.FS.Stats.MetaRPCs)
	c["pfs.disk_reads"] = float64(tb.FS.Stats.DiskReads)
	c["pfs.commits"] = float64(tb.FS.Stats.Commits)
	c["pfs.token_acquires"] = float64(tb.FS.Tokens.Stats.Acquires)
	c["pfs.token_revocations"] = float64(tb.FS.Tokens.Stats.Revocations)
	c["blockstore.read"] = float64(tb.FS.Data.BytesRead)
	c["blockstore.written"] = float64(tb.FS.Data.BytesWritten)
	c["netsim.msgs"] = float64(tb.Net.Messages)
	c["netsim.bytes"] = float64(tb.Net.Bytes)
	if tr := d.Tracer(); tr != nil {
		c["obs.spans"] = float64(tr.Spans)
	}
	for _, dec := range sys.pfsDecs {
		for _, n := range dec.Calls {
			c["pfs.under_calls"] += float64(n)
		}
	}
	return c
}

// sameVT reports whether two passes produced the same virtual-time
// results, bit for bit.
func sameVT(a, b *pass) bool { return reflect.DeepEqual(a.VT, b.VT) }
