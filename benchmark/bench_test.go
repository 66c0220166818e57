package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// testScale shrinks every workload so the whole file runs in seconds.
const testScale = 0.03

func encodeTraces(t *testing.T, w *workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range w.traces() {
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The same seed must generate the same traces and replay to the same
// virtual-time results; another seed must generate other traces and
// still pass every output check.
func TestSameSeedSameTracesAndResults(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b, c := generate(name, 7, testScale), generate(name, 7, testScale), generate(name, 8, testScale)
			if !bytes.Equal(encodeTraces(t, a), encodeTraces(t, b)) {
				t.Fatal("same seed generated different traces")
			}
			if bytes.Equal(encodeTraces(t, a), encodeTraces(t, c)) {
				t.Fatal("different seeds generated the same traces")
			}
			pa, pb, pc := runPass(a, 7, passOptions{}), runPass(b, 7, passOptions{}), runPass(c, 8, passOptions{})
			if !sameVT(pa, pb) {
				t.Errorf("same seed, different virtual-time results:\n%+v\n%+v", pa.VT, pb.VT)
			}
			if sameVT(pa, pc) {
				t.Error("different seeds gave identical virtual-time results")
			}
			for _, ps := range []*pass{pa, pc} {
				if ps.Failed != 0 || len(ps.Problems) != 0 {
					t.Errorf("output checks failed: %d failed ops, %v", ps.Failed, ps.Problems)
				}
				if ps.VT.Ops != a.measuredOps() {
					t.Errorf("measured %d ops, trace has %d", ps.VT.Ops, a.measuredOps())
				}
			}
		})
	}
}

// The budget lines and the residual must sum to the measured latency
// exactly, tracing must not move virtual time, and the layer each
// workload is built to load or bypass must show it.
func TestBudgetIdentityAndPredictions(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var rec record
			var out bytes.Buffer
			values, problems, err := tracedRun(name, options{Seed: 3, Scale: testScale, Out: &out}, &rec)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != 0 || rec.Failed != 0 {
				t.Fatalf("checks failed: %v (%d failed ops)", problems, rec.Failed)
			}
			for _, d := range perLayer {
				if v, ok := values[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s missing or not finite", d.Name)
				}
			}
			sum := values["budget.residual_ms"]
			for _, line := range budgetLines {
				sum += values[line]
			}
			// vt.op_ms_mean is not in the per-layer block; rebuild it.
			w := generate(name, drawSeed(3, 0), testScale)
			mean := runPass(w, drawSeed(3, 0), passOptions{}).VT.MeanMs
			if math.Abs(sum-mean) > 1e-9*mean {
				t.Errorf("budget lines sum to %.9f ms, vt.op_ms_mean is %.9f ms", sum, mean)
			}
			switch name {
			case "hot_stat":
				for _, zero := range []string{"mdb.wal_records_per_op", "mdb.log_flushes_per_op", "pfs.under_ms", "core.2pc_ms"} {
					if values[zero] != 0 {
						t.Errorf("%s = %v on a read-only workload, want 0", zero, values[zero])
					}
				}
			case "create_storm":
				for _, line := range budgetLines {
					if values[line] > values["pfs.under_ms"] {
						t.Errorf("%s = %.3f exceeds pfs.under_ms = %.3f, predicted to be the largest line", line, values[line], values["pfs.under_ms"])
					}
				}
			case "smallfile_io":
				if values["pfs.under_ms"] < 0.5*mean {
					t.Errorf("pfs.under_ms = %.3f, want at least half of the %.3f ms mean", values["pfs.under_ms"], mean)
				}
			}
			if name == "create_storm" && values["mdb.recover_ms"] <= 0 {
				t.Error("create_storm epilogue recovered in no virtual time")
			}
		})
	}
}

// countingFS records which methods were called; results are distinct
// per method so forwarding of return values is visible.
type countingFS struct{ calls map[string]int }

func (c *countingFS) hit(name string) { c.calls[name]++ }

func (c *countingFS) Root() vfs.Ino { c.hit("Root"); return 42 }
func (c *countingFS) Lookup(*sim.Proc, vfs.Ctx, vfs.Ino, string) (vfs.Attr, error) {
	c.hit("Lookup")
	return vfs.Attr{Ino: 1}, nil
}
func (c *countingFS) Getattr(*sim.Proc, vfs.Ctx, vfs.Ino) (vfs.Attr, error) {
	c.hit("Getattr")
	return vfs.Attr{Ino: 2}, nil
}
func (c *countingFS) Setattr(*sim.Proc, vfs.Ctx, vfs.Ino, vfs.SetAttr) (vfs.Attr, error) {
	c.hit("Setattr")
	return vfs.Attr{Ino: 3}, nil
}
func (c *countingFS) Create(*sim.Proc, vfs.Ctx, vfs.Ino, string, uint32) (vfs.Attr, vfs.Handle, error) {
	c.hit("Create")
	return vfs.Attr{Ino: 4}, 4, nil
}
func (c *countingFS) Open(*sim.Proc, vfs.Ctx, vfs.Ino, vfs.OpenFlags) (vfs.Handle, error) {
	c.hit("Open")
	return 5, nil
}
func (c *countingFS) Release(*sim.Proc, vfs.Ctx, vfs.Handle) error {
	c.hit("Release")
	return vfs.ErrBadHandle
}
func (c *countingFS) Read(_ *sim.Proc, _ vfs.Ctx, _ vfs.Handle, _, n int64) (int64, error) {
	c.hit("Read")
	return n, nil
}
func (c *countingFS) Write(_ *sim.Proc, _ vfs.Ctx, _ vfs.Handle, _, n int64) (int64, error) {
	c.hit("Write")
	return n, nil
}
func (c *countingFS) Fsync(*sim.Proc, vfs.Ctx, vfs.Handle) error { c.hit("Fsync"); return nil }
func (c *countingFS) Mkdir(*sim.Proc, vfs.Ctx, vfs.Ino, string, uint32) (vfs.Attr, error) {
	c.hit("Mkdir")
	return vfs.Attr{Ino: 6}, nil
}
func (c *countingFS) Rmdir(*sim.Proc, vfs.Ctx, vfs.Ino, string) error {
	c.hit("Rmdir")
	return vfs.ErrNotEmpty
}
func (c *countingFS) Unlink(*sim.Proc, vfs.Ctx, vfs.Ino, string) error {
	c.hit("Unlink")
	return vfs.ErrNotExist
}
func (c *countingFS) Rename(*sim.Proc, vfs.Ctx, vfs.Ino, string, vfs.Ino, string) error {
	c.hit("Rename")
	return vfs.ErrExist
}
func (c *countingFS) Link(*sim.Proc, vfs.Ctx, vfs.Ino, vfs.Ino, string) (vfs.Attr, error) {
	c.hit("Link")
	return vfs.Attr{Ino: 7}, nil
}
func (c *countingFS) Symlink(*sim.Proc, vfs.Ctx, vfs.Ino, string, string) (vfs.Attr, error) {
	c.hit("Symlink")
	return vfs.Attr{Ino: 8}, nil
}
func (c *countingFS) Readlink(*sim.Proc, vfs.Ctx, vfs.Ino) (string, error) {
	c.hit("Readlink")
	return "target", nil
}
func (c *countingFS) Readdir(*sim.Proc, vfs.Ctx, vfs.Ino) ([]vfs.DirEntry, error) {
	c.hit("Readdir")
	return []vfs.DirEntry{{Name: "e", Ino: 9}}, nil
}
func (c *countingFS) StatFS(*sim.Proc, vfs.Ctx) (vfs.Statfs, error) {
	c.hit("StatFS")
	return vfs.Statfs{Files: 10}, nil
}

// Every method of vfs.Filesystem must reach the decorated file system
// exactly once per call, with its results handed back unchanged.
func TestDecoratorForwardsEveryMethod(t *testing.T) {
	iface := reflect.TypeOf((*vfs.Filesystem)(nil)).Elem()
	if iface.NumMethod() != 19 {
		t.Fatalf("vfs.Filesystem has %d methods; the decorator was written for 19", iface.NumMethod())
	}
	inner := &countingFS{calls: map[string]int{}}
	log := newSpanLog()
	dec := newTimedFS(inner, log, layerCore)
	env := sim.NewEnv(1)
	env.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < iface.NumMethod(); i++ {
			m := iface.Method(i)
			args := make([]reflect.Value, m.Type.NumIn())
			for j := range args {
				if m.Type.In(j) == reflect.TypeOf(p) {
					args[j] = reflect.ValueOf(p)
				} else {
					args[j] = reflect.Zero(m.Type.In(j))
				}
			}
			got := reflect.ValueOf(dec).MethodByName(m.Name).Call(args)
			want := reflect.ValueOf(inner).MethodByName(m.Name).Call(args)
			for k := range got {
				if !reflect.DeepEqual(got[k].Interface(), want[k].Interface()) {
					t.Errorf("%s: result %d is %v through the decorator, %v direct", m.Name, k, got[k], want[k])
				}
			}
			// One call through the decorator, one direct for comparison.
			if inner.calls[m.Name] != 2 {
				t.Errorf("%s reached the inner file system %d times, want 2", m.Name, inner.calls[m.Name])
			}
			if dec.Calls[strings.ToLower(m.Name)] != 1 {
				t.Errorf("%s counted %d times by the decorator, want 1", m.Name, dec.Calls[strings.ToLower(m.Name)])
			}
		}
	})
	env.MustRun()
	if len(dec.Calls) != 19 {
		t.Errorf("decorator counted %d distinct methods, want 19", len(dec.Calls))
	}
	// Root takes no process and records no span.
	if n := len(log.procs[0].spans); n != 18 {
		t.Errorf("recorded %d spans, want 18", n)
	}
}

// BENCHMARK.json is written by hand; it must declare exactly what the
// program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, program has %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: declared %q / %q, program has %q / %q", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, declared []jsonMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d metrics declared, program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			j := declared[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s %d: declared %+v, program has %+v", kind, i, j, d)
			}
			if bounded != (j.Bound != nil) || (bounded && *j.Bound != d.Bound) {
				t.Errorf("%s %s: bound declared %v, program has %v", kind, d.Name, j.Bound, d.Bound)
			}
			if len(d.Name) > 64 || len(d.Unit) > 16 {
				t.Errorf("%s %s: name or unit too long", kind, d.Name)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
}

func TestRunPrintsContractLine(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "shared_dir_mix", "--seed", "5", "--seconds", "0", "--scale", "0.03", "--trace", []string{"0", "1"}[trace]}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s%s", code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw) != 4 {
			t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", raw)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Errorf("trace %d: result %+v", trace, res)
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %d: metric %s missing or in unit %q", trace, d.Name, m.Unit)
			}
		}
		if trace == 0 {
			for _, d := range defs {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.05}
	tight := func(m float64) sideStats { return reduce([]float64{m, m * 1.001, m * 0.999, m}) }
	for _, c := range []struct {
		d    metricDef
		a, b sideStats
		want string
	}{
		{lower, tight(100), tight(101), "same"},
		{lower, tight(100), tight(110), "worse"},
		{lower, tight(100), tight(90), "better"},
		{higher, tight(100), tight(90), "worse"},
		{higher, tight(100), tight(110), "better"},
		{lower, tight(100), reduce([]float64{80, 100, 120, 140}), "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}

	dir := t.TempDir()
	rec := func(value float64, failed int) record {
		r := record{Workload: "hot_stat", result: result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metricValue{Value: value, Unit: d.Unit}
		}
		return r
	}
	write := func(name string, r record) string {
		path := dir + "/" + name
		for i := 0; i < 4; i++ {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, failing := write("a", rec(10, 0)), write("same", rec(10, 0)), write("failing", rec(10, 3))
	var out, errOut bytes.Buffer
	if code := compareFiles(a, same, &out, &errOut); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(a, failing, &out, &errOut); code != 1 {
		t.Errorf("a set with failed operations: exit %d, want 1", code)
	}
	slower := write("slower", rec(20, 0)) // twice the latency, but also twice the rate
	if code := compareFiles(a, slower, &out, &errOut); code != 1 {
		t.Errorf("a set with doubled latencies: exit %d, want 1", code)
	}
}

func TestParseTraceLine(t *testing.T) {
	line := []byte(`{"track":"blade03/bench.mix.n03.p2","tid":12,"ph":"B","name":"op.lookup","ts_us":98765432.101,"shard":2}`)
	track, tid, ph, name, ts, err := parseTraceLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if track != "blade03/bench.mix.n03.p2" || tid != 12 || ph != 'B' || name != "op.lookup" || ts != 98765432101*time.Nanosecond {
		t.Errorf("parsed %q as %q %d %c %q %v", line, track, tid, ph, name, ts)
	}
	if _, _, _, _, _, err := parseTraceLine([]byte("not json")); err == nil {
		t.Error("garbage parsed without error")
	}
}

func TestCPUBuckets(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"cofs/internal/sim.(*Env).Run", "main.main"}, "sim"},
		{[]string{"cofs/internal/core.(*FS).Lookup"}, "core"},
		{[]string{"cofs/internal/lru.(*Cache[...]).Get"}, "other"},
		{[]string{"runtime.chanrecv", "cofs/internal/sim.(*Proc).block"}, "runtime_sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "cofs/internal/core.(*FS).Create"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"main.(*timedFS).Lookup"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
