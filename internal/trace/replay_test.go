package trace_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// memTarget builds an n-node target over one shared in-memory file
// system (cheap replay correctness checks).
func memTarget(n int) trace.Target {
	env := sim.NewEnv(1)
	fs := vfs.NewMemFS()
	mounts := make([]*vfs.Mount, n)
	for i := range mounts {
		mounts[i] = vfs.NewMount(fs, params.FUSEParams{})
	}
	return trace.Target{Env: env, Mounts: mounts}
}

func TestReplayCheckpointOnMemFS(t *testing.T) {
	tgt := memTarget(4)
	tr := trace.GenCheckpoint(trace.CheckpointConfig{
		Nodes: 4, Rounds: 3, BytesPerNode: 1 << 16, Interval: time.Second,
	})
	res, err := trace.Replay(tgt, tr, trace.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("replay errors: %d (first: %v)", res.Errors, res.FirstErr)
	}
	if res.Ops != 20 { // 12 writes + 8 unlinks (mkdir is prologue)
		t.Errorf("ops = %d, want 20", res.Ops)
	}
	// Only the final round's files remain.
	env, m := tgt.Env, tgt.Mounts[0]
	env.Spawn("verify", func(p *sim.Proc) {
		ents, err := m.Readdir(p, cluster.Ctx(0, 1), "/ckpt")
		if err != nil {
			t.Errorf("readdir: %v", err)
			return
		}
		if len(ents) != 4 {
			t.Errorf("surviving checkpoints = %d, want 4", len(ents))
		}
	})
	env.MustRun()
}

func TestReplayMixedNoErrors(t *testing.T) {
	tgt := memTarget(4)
	tr := trace.GenMixed(rand.New(rand.NewSource(3)), trace.MixedConfig{
		Nodes: 4, OpsPerNode: 300, Dirs: 2, MaxBytes: 1 << 14, Spacing: time.Millisecond,
	})
	res, err := trace.Replay(tgt, tr, trace.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("mixed replay must be error-free, got %d (first: %v)", res.Errors, res.FirstErr)
	}
	if res.Ops == 0 || res.PerKind[trace.WriteFile].N() == 0 {
		t.Error("no operations replayed")
	}
}

func TestReplayTimedHonoursSchedule(t *testing.T) {
	tgt := memTarget(2)
	tr := trace.GenCheckpoint(trace.CheckpointConfig{
		Nodes: 2, Rounds: 2, BytesPerNode: 1 << 10, Interval: 5 * time.Second,
	})
	res, err := trace.Replay(tgt, tr, trace.ReplayOptions{Timed: true})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Elapsed < 10*time.Second {
		t.Errorf("timed replay took %v, want >= 10s (2 rounds x 5s)", res.Elapsed)
	}
	// As-fast-as-possible replay of the same trace must be much quicker.
	tgt2 := memTarget(2)
	res2, err := trace.Replay(tgt2, tr, trace.ReplayOptions{})
	if err != nil {
		t.Fatalf("afap replay: %v", err)
	}
	if res2.Elapsed >= res.Elapsed {
		t.Errorf("afap (%v) not faster than timed (%v)", res2.Elapsed, res.Elapsed)
	}
}

func TestReplayTooManyNodes(t *testing.T) {
	tgt := memTarget(1)
	tr := trace.GenCheckpoint(trace.CheckpointConfig{Nodes: 4, Rounds: 1, BytesPerNode: 1, Interval: time.Second})
	if _, err := trace.Replay(tgt, tr, trace.ReplayOptions{}); err == nil {
		t.Error("replay accepted a trace needing more nodes than the target has")
	}
}

// TestReplayReturnsPrologueError: a trace is outside input, so a
// directory the prologue cannot make is an error Replay returns, not a
// panic.
func TestReplayReturnsPrologueError(t *testing.T) {
	tgt := memTarget(1)
	tr := &trace.Trace{Ops: []trace.Op{
		{Kind: trace.Mkdir, Path: "/" + strings.Repeat("x", 300), Node: 0, PID: 1, Mode: 0755},
		{Kind: trace.Create, Path: "/ok", Node: 0, PID: 1, Mode: 0644},
	}}
	res, err := trace.Replay(tgt, tr, trace.ReplayOptions{})
	if err == nil || !strings.Contains(err.Error(), "prologue") || !errors.Is(err, vfs.ErrNameTooLong) {
		t.Fatalf("replay of an unmakeable directory: %v, %v; want the prologue's name-too-long error", res, err)
	}
}

func TestReplayErrorsCounted(t *testing.T) {
	tgt := memTarget(1)
	tr := &trace.Trace{}
	tr.Ops = append(tr.Ops,
		trace.Op{Kind: trace.Stat, Path: "/missing", Node: 0, PID: 1},
		trace.Op{Kind: trace.Create, Path: "/ok", Node: 0, PID: 1, Mode: 0644},
	)
	res, err := trace.Replay(tgt, tr, trace.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Errors != 1 {
		t.Errorf("errors = %d, want 1", res.Errors)
	}
	if res.FirstErr == nil {
		t.Error("FirstErr not recorded")
	}
	if res.Ops != 2 {
		t.Errorf("ops = %d, want 2 (continue past errors)", res.Ops)
	}
}

// TestReplayGPFSvsCOFS replays the batch-jobs trace against both stacks
// end to end, then measures the phase the paper's section II names as
// the second metadata trigger: a cross-node sweep over the shared
// output directory (readdir + stat of every entry from a node that did
// not create the files). COFS must keep the sweep cheap; job submission
// itself is allowed to trade GPFS's creator-local attribute handling
// against COFS's service round trips (the examples/batchjobs README
// story and Table I's small-file cells).
func TestReplayGPFSvsCOFS(t *testing.T) {
	const nodes = 4
	run := func(useCOFS bool) (replay *trace.ReplayResult, sweepMs float64) {
		tb := cluster.New(21, nodes, params.Default())
		var tgt trace.Target
		if useCOFS {
			d := core.Deploy(tb, nil)
			tgt = trace.Target{Env: tb.Env, Mounts: d.Mounts}
		} else {
			tgt = trace.Target{Env: tb.Env, Mounts: tb.Mounts}
		}
		tr := trace.GenBatchJobs(trace.BatchConfig{
			Nodes: nodes - 1, Jobs: 48, FilesPerJob: 4, BytesPerFile: 4 << 10,
			Stagger: 20 * time.Millisecond,
		})
		res, err := trace.Replay(tgt, tr, trace.ReplayOptions{Timed: true})
		if err != nil {
			t.Fatalf("replay (cofs=%v): %v", useCOFS, err)
		}
		if res.Errors != 0 {
			t.Fatalf("replay errors (cofs=%v): %d, first: %v", useCOFS, res.Errors, res.FirstErr)
		}
		// Analysis sweep from the node that ran no jobs.
		var perEntry time.Duration
		tgt.Env.Spawn("sweep", func(p *sim.Proc) {
			m := tgt.Mounts[nodes-1]
			ctx := cluster.Ctx(nodes-1, 1)
			start := p.Now()
			ents, err := m.Readdir(p, ctx, "/results")
			if err != nil {
				t.Errorf("readdir: %v", err)
				return
			}
			for _, e := range ents {
				if _, err := m.Stat(p, ctx, "/results/"+e.Name); err != nil {
					t.Errorf("stat %s: %v", e.Name, err)
					return
				}
			}
			perEntry = (p.Now() - start) / time.Duration(len(ents))
		})
		tgt.Env.MustRun()
		return res, float64(perEntry) / 1e6
	}
	gres, gSweep := run(false)
	cres, cSweep := run(true)
	t.Logf("job write mean: gpfs=%.2fms cofs=%.2fms; sweep per entry: gpfs=%.3fms cofs=%.3fms",
		gres.PerKind[trace.WriteFile].MeanMs(), cres.PerKind[trace.WriteFile].MeanMs(), gSweep, cSweep)
	if cSweep >= gSweep {
		t.Errorf("COFS cross-node sweep (%.3f ms/entry) not cheaper than GPFS (%.3f ms/entry)", cSweep, gSweep)
	}
}

// TestRunPhaseEndsAtLastStream pins the phase clock and barrier of Run:
// a named phase's hook sleeping 1 s of virtual time holds the barrier,
// so the next phase starts after it, but the phase's time ends with its
// last stream.
func TestRunPhaseEndsAtLastStream(t *testing.T) {
	tb := cluster.New(1, 2, params.Default())
	tgt := trace.Target{Env: tb.Env, Mounts: tb.Mounts}
	starts := map[string]time.Duration{}
	hook := func(p *sim.Proc, phase string) {
		starts[phase] = p.Now()
		if phase == "create" {
			p.Sleep(time.Second)
		}
	}
	res, err := trace.Run(tgt, []trace.Phase{
		{Ops: []trace.Op{{Kind: trace.Mkdir, Path: "/d", Mode: 0777}}},
		{Name: "create", Ops: []trace.Op{
			{Node: 0, PID: 1, Kind: trace.Create, Path: "/d/a", Mode: 0644},
			{Node: 1, PID: 1, Kind: trace.Create, Path: "/d/b", Mode: 0644},
		}},
		{Name: "stat", Ops: []trace.Op{{Node: 1, PID: 1, Kind: trace.Stat, Path: "/d/a"}}},
	}, hook)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.PhaseTime["create"]; d <= 0 || d >= time.Second {
		t.Errorf("create phase time %v, want in (0, 1s): it ends at its last stream, not at the hook", d)
	}
	if gap := starts["stat"] - starts["create"]; gap < time.Second {
		t.Errorf("stat phase started %v after create, want >= 1s: the barrier waits for the hook", gap)
	}
	if res.PhaseOps["create"] != 2 || res.PerPhase["stat"].N() != 1 || res.TotalOps() != 3 {
		t.Errorf("ops: %v, stat samples %d", res.PhaseOps, res.PerPhase["stat"].N())
	}
	if _, ok := res.PhaseOps[""]; ok {
		t.Error("the unnamed set-up phase was reported")
	}
}

// TestRunPerKind pins Result.PerKind: it summarises the operations of
// the named phases only, each sample added as its operation completes,
// so a phase of one kind has the same summary under its kind as under
// its name. A one-stream phase issues its operations back to back, so
// the exact total of their latencies is the phase's time.
func TestRunPerKind(t *testing.T) {
	tb := cluster.New(1, 2, params.Default())
	tgt := trace.Target{Env: tb.Env, Mounts: tb.Mounts}
	var creates, stats []trace.Op
	for i := 0; i < 11; i++ {
		path := fmt.Sprintf("/d/f%02d", i)
		creates = append(creates, trace.Op{Node: i % 2, PID: 1, Kind: trace.Create, Path: path, Mode: 0644})
		stats = append(stats, trace.Op{Node: 1, PID: 2, Kind: trace.Stat, Path: path})
	}
	res, err := trace.Run(tgt, []trace.Phase{
		{Ops: []trace.Op{
			{PID: 1, Kind: trace.Mkdir, Path: "/d", Mode: 0777},
			{PID: 1, Kind: trace.Create, Path: "/d/setup", Mode: 0644},
			{PID: 1, Kind: trace.Stat, Path: "/d/setup"},
		}},
		{Name: "create", Ops: creates},
		{Name: "stat", Ops: stats},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerKind) != 2 || res.PerKind[trace.Create].N() != 11 || res.PerKind[trace.Stat].N() != 11 {
		t.Fatalf("PerKind holds %d kinds, %d creates and %d stats; want 11 of each from the named phases only",
			len(res.PerKind), res.PerKind[trace.Create].N(), res.PerKind[trace.Stat].N())
	}
	for kind, phase := range map[trace.Kind]string{trace.Create: "create", trace.Stat: "stat"} {
		if !reflect.DeepEqual(res.PerKind[kind], res.PerPhase[phase]) {
			t.Errorf("PerKind[%v] %v differs from PerPhase[%q] %v", kind, res.PerKind[kind], phase, res.PerPhase[phase])
		}
	}
	if sum, d := res.PerKind[trace.Stat].Sum(), res.PhaseTime["stat"]; sum != d || sum <= 0 {
		t.Errorf("stat latencies sum to %v, want the one-stream phase's time %v", sum, d)
	}
}

// TestRunFailsAtFirstError: the first failing operation ends its
// stream — the stream's later operations never run — and fails the run.
func TestRunFailsAtFirstError(t *testing.T) {
	tgt := memTarget(1)
	_, err := trace.Run(tgt, []trace.Phase{{Name: "p", Ops: []trace.Op{
		{Node: 0, PID: 1, Kind: trace.Stat, Path: "/missing"},
		{Node: 0, PID: 1, Kind: trace.Create, Path: "/after", Mode: 0644},
	}}}, nil)
	if err == nil || !strings.Contains(err.Error(), "/missing") {
		t.Fatalf("Run error = %v, want the failed stat of /missing", err)
	}
	tgt.Env.Spawn("check", func(p *sim.Proc) {
		if _, err := tgt.Mounts[0].Stat(p, cluster.Ctx(0, 1), "/after"); err != vfs.ErrNotExist {
			t.Errorf("stat /after: %v, want ErrNotExist: the stream ran past its failure", err)
		}
	})
	tgt.Env.MustRun()
	if _, err := trace.Run(tgt, []trace.Phase{{Ops: []trace.Op{{Node: 1, Kind: trace.Stat, Path: "/"}}}}, nil); err == nil {
		t.Error("Run accepted a stream on a node the target has no mount for")
	}
}

// issueClock is a file system whose creates each cost 1 ms of virtual
// time and record the instant they were issued, by name.
type issueClock struct {
	vfs.Filesystem
	issued map[string]time.Duration
}

func (c *issueClock) Create(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32) (vfs.Attr, vfs.Handle, error) {
	c.issued[name] = p.Now()
	p.Sleep(time.Millisecond)
	return c.Filesystem.Create(p, ctx, dir, name, mode)
}

// TestRaceSchedule pins Race's scheduler on interleaved streams: every
// op's error comes back in input order, a stream starts at its first
// op's At, a later op waits for its At only if its stream is behind it,
// and a failed op does not end its stream.
func TestRaceSchedule(t *testing.T) {
	fs := &issueClock{Filesystem: vfs.NewMemFS(), issued: map[string]time.Duration{}}
	env := sim.NewEnv(1)
	tgt := trace.Target{Env: env, Mounts: []*vfs.Mount{vfs.NewMount(fs, params.FUSEParams{})}}
	env.Spawn("offset", func(p *sim.Proc) { p.Sleep(5 * time.Millisecond) })
	env.MustRun()
	a := func(at time.Duration, kind trace.Kind, path string) trace.Op {
		return trace.Op{PID: 1, At: at, Kind: kind, Path: path, Mode: 0644}
	}
	b := func(kind trace.Kind, path string) trace.Op {
		return trace.Op{PID: 2, Kind: kind, Path: path, Mode: 0644}
	}
	errs := trace.Race(tgt, []trace.Op{
		a(2*time.Millisecond, trace.Create, "/a0"),  // stream a starts 2 ms in
		b(trace.Stat, "/missing"),                   // fails at once
		a(2*time.Millisecond, trace.Create, "/a1"),  // a is at 3 ms: no wait
		b(trace.Create, "/b0"),                      // b goes on past its failure
		a(10*time.Millisecond, trace.Create, "/a2"), // a is at 4 ms: waits
		b(trace.Unlink, "/missing"),
	})
	want := []error{nil, vfs.ErrNotExist, nil, nil, nil, vfs.ErrNotExist}
	if !reflect.DeepEqual(errs, want) {
		t.Errorf("errors %v, want %v in input order", errs, want)
	}
	const ms = time.Millisecond
	wantAt := map[string]time.Duration{"a0": 7 * ms, "a1": 8 * ms, "a2": 15 * ms, "b0": 5 * ms}
	if !reflect.DeepEqual(fs.issued, wantAt) {
		t.Errorf("creates issued at %v, want %v (offsets from the Race's start at 5ms)", fs.issued, wantAt)
	}
	if now := env.Now(); now != 16*ms {
		t.Errorf("Race drained at %v, want 16ms", now)
	}
}

// TestReplayPrologueStreamsPinned pins Replay's whole result, in both
// modes, for streams that begin with mkdirs, one of them made of
// nothing else: the prologue runs every mkdir, and the streams run only
// what is left, paced from the end of the prologue.
func TestReplayPrologueStreamsPinned(t *testing.T) {
	const ms = time.Millisecond
	tr := &trace.Trace{Ops: []trace.Op{
		{Node: 0, PID: 1, Kind: trace.Mkdir, Path: "/a", Mode: 0777},
		{Node: 1, PID: 1, Kind: trace.Mkdir, Path: "/b/c", Mode: 0777},
		{Node: 1, PID: 2, At: ms, Kind: trace.Mkdir, Path: "/d", Mode: 0777},
		{Node: 0, PID: 1, At: 2 * ms, Kind: trace.Create, Path: "/a/f", Mode: 0644},
		{Node: 1, PID: 2, At: 3 * ms, Kind: trace.WriteFile, Path: "/d/g", Mode: 0644, Bytes: 4096},
		{Node: 0, PID: 1, At: 3 * ms, Kind: trace.Stat, Path: "/d/g"},
		{Node: 1, PID: 2, At: 9 * ms, Kind: trace.Stat, Path: "/a/f"},
	}}
	for _, c := range []struct {
		timed   bool
		elapsed time.Duration
		sums    map[trace.Kind]time.Duration
	}{
		{false, 33238729, map[trace.Kind]time.Duration{trace.Create: 4740737, trace.WriteFile: 8304034, trace.Stat: 50864421}},
		{true, 35763917, map[trace.Kind]time.Duration{trace.Create: 4740737, trace.WriteFile: 8302580, trace.Stat: 50916251}},
	} {
		tb := cluster.New(1, 2, params.Default())
		res, err := trace.Replay(trace.Target{Env: tb.Env, Mounts: tb.Mounts}, tr, trace.ReplayOptions{Timed: c.timed})
		if err != nil {
			t.Fatal(err)
		}
		sums := map[trace.Kind]time.Duration{}
		for k, s := range res.PerKind {
			sums[k] = s.Sum()
		}
		if res.Elapsed != c.elapsed || res.Ops != 4 || res.Errors != 0 || res.PerKind[trace.Stat].N() != 2 || !reflect.DeepEqual(sums, c.sums) {
			t.Errorf("timed=%v: elapsed %d, %d ops, %d errors, latency sums %v; want %d, 4, 0, %v",
				c.timed, res.Elapsed, res.Ops, res.Errors, sums, c.elapsed, c.sums)
		}
	}
}
