// Command benchmark is the repository's benchmark: four seeded,
// trace-driven workloads replayed closed-loop through vfs.Mount on the
// grown COFS profile, reported on two clocks — virtual time (vt.*: the
// modelled file system; repeats exactly for a seed) and host time
// (host.*, setup_s: the simulator; noisy) — with a traced run that
// splits an operation's latency into per-layer shares. README.md in
// this directory is the manual.
//
//	run.sh --workload create_storm --seed 1 --seconds 20 --trace 0
//	run.sh -seed 1                       # all workloads, both runs
//	run.sh -compare a.jsonl b.jsonl      # two sets of -json records
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result with its coordinates, as -json appends it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

type options struct {
	Seed    int64
	Seconds float64
	Scale   float64
	OutDir  string
	Out     io.Writer
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload and print its result as the last line: "+fmt.Sprint(workloadNames))
		seed     = fs.Int64("seed", 1, "workload seed: the same seed generates the same traces")
		seconds  = fs.Float64("seconds", 0, "time budget of the timed run; it makes 3 passes, or as many more as fit")
		traceArg = fs.Int("trace", 0, "0: timed passes, end-to-end metrics; 1: traced pass, per-layer metrics")
		scale    = fs.Float64("scale", 1, "shrink every operation count (tests); results at other scales do not compare")
		jsonPath = fs.String("json", "", "append each run's record to this file (input of -compare)")
		outDir   = fs.String("out", "", "write the traced pass's spans here as JSONL and Chrome trace JSON")
		compare  = fs.Bool("compare", false, "compare two -json files given as arguments; exit 1 on any regression")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *scale <= 0 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	opt := options{Seed: *seed, Seconds: *seconds, Scale: *scale, OutDir: *outDir, Out: stdout}

	names, traces := workloadNames, []int{0, 1}
	if *name != "" {
		names, traces = []string{*name}, []int{*traceArg}
	}
	ok := true
	var last result
	for _, n := range names {
		for _, tr := range traces {
			rec, err := runWorkload(n, tr, opt)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 2
			}
			if *jsonPath != "" {
				if err := appendRecord(*jsonPath, rec); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 2
				}
			}
			ok = ok && rec.Correct
			last = rec.result
		}
	}
	if *name != "" {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: FAILED output checks (see above)")
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// draws is how many independent draws of a workload one timed run
// measures. Draw i generates its traces and seeds the simulator from
// drawSeed(seed, i); the run reports the median over the draws. The
// model is sensitive to its own noise (which streams collide in a
// bucket, which shard a hot file lands on), so a single draw would make
// every vt.* metric a lottery ticket; the count is fixed so the result
// does not depend on how fast the host is.
const draws = 8

func drawSeed(seed int64, i int) int64 { return seed*64 + int64(i) }

// runWorkload makes one run of a workload: the timed passes (trace 0)
// or the traced pass with its companions (trace 1).
func runWorkload(name string, traceMode int, opt options) (record, error) {
	if _, ok := workloadWhy[name]; !ok {
		return record{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	rec := record{Workload: name, Seed: opt.Seed, Trace: traceMode}
	rec.Metrics = map[string]metricValue{}
	var problems []string
	var values map[string]float64
	defs := endToEnd
	if traceMode == 0 {
		values, problems = timedRun(name, opt, &rec)
	} else {
		defs = perLayer
		var err error
		if values, problems, err = tracedRun(name, opt, &rec); err != nil {
			return record{}, err
		}
	}
	fmt.Fprintf(opt.Out, "== %s  seed %d  trace %d  (%s)\n", name, opt.Seed, traceMode, workloadWhy[name])
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s has no finite value", d.Name))
			v = 0
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(opt.Out, "  %-34s %16.6f %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	for _, p := range problems {
		fmt.Fprintf(opt.Out, "  CHECK FAILED: %s\n", p)
	}
	rec.Correct = len(problems) == 0 && rec.Failed == 0
	fmt.Fprintf(opt.Out, "  checks: %d ops attempted, %d failed, correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
	return rec, nil
}

// timedRun makes the timed passes: tracing off, a fresh system per
// pass. The first `draws` passes are the draws; every later pass
// repeats a draw, must reproduce its virtual-time results bit for bit,
// and adds a host-time sample. There is always at least one repeat.
func timedRun(name string, opt options, rec *record) (map[string]float64, []string) {
	var passes []*pass
	var problems []string
	var longest time.Duration
	start := time.Now()
	budget := time.Duration(opt.Seconds * float64(time.Second))
	for len(passes) <= draws || time.Since(start)+longest < budget {
		t := time.Now()
		seed := drawSeed(opt.Seed, len(passes)%draws)
		ps := runPass(generate(name, seed, opt.Scale), seed, passOptions{})
		if d := time.Since(t); d > longest {
			longest = d
		}
		ps.sys, ps.phases = nil, nil // one live system at a time
		rec.Attempted += ps.VT.Ops
		rec.Failed += ps.Failed
		problems = append(problems, ps.Problems...)
		if n := len(passes); n >= draws && !sameVT(passes[n%draws], ps) {
			problems = append(problems, fmt.Sprintf("pass %d: virtual-time results differ from pass %d for the same seed", n, n%draws))
		}
		fmt.Fprintf(opt.Out, "-- pass %2d draw %d: %6.0f host ops/s, set-up %.3f s, %.0f vt ops/s\n",
			len(passes), len(passes)%draws, float64(ps.VT.Ops)/ps.Host.WallS, ps.Host.SetupS, ps.VT.OpsPerS)
		passes = append(passes, ps)
	}
	fmt.Fprintf(opt.Out, "-- %d timed passes over %d draws; each timing below is over %d ops per pass\n", len(passes), draws, passes[0].VT.Ops)
	return endToEndValues(passes[:draws], passes), problems
}

// tracedRun makes one untraced and one traced pass of draw 0, folds the
// latency budget, times the layer probes and, where the workload asks
// for it, replays the trace on the bare PFS.
func tracedRun(name string, opt options, rec *record) (map[string]float64, []string, error) {
	seed := drawSeed(opt.Seed, 0)
	w := generate(name, seed, opt.Scale)
	timed := runPass(w, seed, passOptions{})
	timedWall := timed.Host.WallS
	timed.sys, timed.phases = nil, nil

	traced := runPass(w, seed, passOptions{Traced: true})
	rec.Attempted = timed.VT.Ops + traced.VT.Ops
	rec.Failed = timed.Failed + traced.Failed
	problems := append(timed.Problems, traced.Problems...)
	if !sameVT(timed, traced) {
		problems = append(problems, "tracing changed the virtual-time results")
	}

	b, err := foldBudget(traced.sys.d.Tracer(), traced.sys.log, traced.phases[0].Start, traced.VT.Final)
	if err != nil {
		return nil, nil, err
	}
	var total time.Duration
	for _, ph := range traced.phases {
		for _, s := range ph.Samples {
			total += s.Lat
		}
	}
	switch {
	case b.Crossings > 0:
		problems = append(problems, fmt.Sprintf("budget: %d spans overlap without nesting", b.Crossings))
	case b.Ops != traced.VT.Ops || b.Total != total:
		problems = append(problems, fmt.Sprintf("budget: folded %d ops / %v, replay measured %d ops / %v", b.Ops, b.Total, traced.VT.Ops, total))
	case math.Abs(float64(b.Residual)) > 0.01*float64(total):
		problems = append(problems, fmt.Sprintf("budget: residual %v exceeds 1%% of %v", b.Residual, total))
	}

	in := layerInputs{Traced: traced, Budget: b, TimedWallS: timedWall, Probes: runProbes(w.Cfg)}
	if w.Bare {
		in.Bare = runPass(w, seed, passOptions{Bare: true})
		rec.Attempted += in.Bare.VT.Ops
		rec.Failed += in.Bare.Failed
		problems = append(problems, in.Bare.Problems...)
	}
	values := perLayerValues(in)

	if opt.OutDir != "" {
		if err := writeSpanFiles(opt.OutDir, name, traced.sys.log); err != nil {
			return nil, nil, err
		}
	}
	return values, problems, nil
}

func writeSpanFiles(dir, name string, log *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer jf.Close()
	cf, err := os.Create(filepath.Join(dir, name+".spans.chrome.json"))
	if err != nil {
		return err
	}
	defer cf.Close()
	if err := writeSpans(log, jf, cf); err != nil {
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	return cf.Close()
}
