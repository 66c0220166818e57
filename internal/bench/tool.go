// Package bench holds what the tools and benchmarks share around the
// load itself: the tools' deployment flags and report, the gated bench
// records, and IOR v2 (LLNL — parallel data transfer rates, the paper's
// section IV), whose offset transfers have no trace form. Every other
// load is a trace run by internal/trace, which also owns the target a
// load drives.
package bench

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// ToolFlags is the deployment surface the tools share (cofsctl, mdtest,
// metarates): the flags that shape a COFS deployment and its
// observability, and the end-of-run report. Each tool
// binds it beside its own workload flags, so the three cannot drift.
type ToolFlags struct {
	Shards     int
	AttrLease  time.Duration
	Trace      string
	Metrics    bool
	Slowlog    time.Duration
	CPUProfile string
	MemProfile string
}

// BindToolFlags registers the shared flags on fs.
func BindToolFlags(fs *flag.FlagSet) *ToolFlags {
	f := &ToolFlags{}
	fs.IntVar(&f.Shards, "shards", 1, "cofs metadata service shards")
	fs.DurationVar(&f.AttrLease, "attr-lease", 0, "cofs client cache lease term (0 disables the client cache)")
	fs.StringVar(&f.Trace, "trace", "", "cofs: write a Chrome trace-event JSON of the run to this file (open in Perfetto; docs/observability.md)")
	fs.BoolVar(&f.Metrics, "metrics", false, "cofs: collect and print per-(op, shard) latency histograms and skew rates")
	fs.DurationVar(&f.Slowlog, "slowlog", 0, "cofs: print the slowest operation spans at or above this virtual-time threshold (implies tracing)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a host CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a host allocation profile to this file")
	return f
}

// Config assembles the testbed configuration: params.Default with the
// flags applied.
func (f *ToolFlags) Config() params.Config {
	cfg := params.Default()
	cfg.COFS.MetadataShards = f.Shards
	cfg.COFS.AttrLease = f.AttrLease
	cfg.COFS.Trace = f.Trace != "" || f.Slowlog > 0
	cfg.COFS.Metrics = f.Metrics
	return cfg
}

// Start is Config plus the host profiles, for tool mains: an
// uncreatable profile is fatal with exit status 2, like a flag-parse
// error. The returned stop ends the profiles and reports its own
// failure to stderr instead of returning it (a profile write error
// should not change a tool's exit status after a successful run).
func (f *ToolFlags) Start(tool string) (params.Config, func()) {
	stop, err := Profile(f.CPUProfile, f.MemProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(2)
	}
	return f.Config(), func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: profile: %v\n", tool, err)
		}
	}
}

// Report writes the end-of-run report of a deployment to w: the
// per-layer counters, then — as the flags asked — the latency
// histograms and per-shard rates, the slowest spans, and the Chrome
// trace file.
func (f *ToolFlags) Report(w io.Writer, tb *cluster.Testbed, d *core.Deployment) error {
	fmt.Fprintln(w, "== cofs per-layer counters ==")
	d.Counters().Fprint(w, "  ")
	if m := d.Metrics(); m != nil {
		fmt.Fprintln(w, "== cofs latency histograms (virtual time) ==")
		m.Fprint(w, "  ")
		fmt.Fprintln(w, "== cofs per-shard rates (sliding window) ==")
		m.FprintRates(w, "  ", tb.Env.Now())
	}
	tr := d.Tracer()
	if tr == nil {
		return nil
	}
	if f.Slowlog > 0 {
		fmt.Fprintf(w, "== cofs slowest spans (threshold %v) ==\n", f.Slowlog)
		tr.FprintSlow(w, f.Slowlog, 16)
	}
	if f.Trace == "" {
		return nil
	}
	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(f.Trace, chrome.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d spans -> %s\n", tr.Spans, f.Trace)
	return nil
}

// ReshardAt is the phase hook of a tool's -reshard-at/-reshard-to
// flags over deployment d (nil on a bare stack), given the names of the
// run's measured phases: nil when at is empty, and a ReshardHook when
// the flags make sense. Otherwise it reports why to stderr under the
// tool's name and exits 2, like a flag-parse error.
func ReshardAt(tool, at string, to int, d *core.Deployment, phases []string) func(p *sim.Proc, phase string) {
	var why string
	switch {
	case at == "":
		return nil
	case d == nil:
		why = "-reshard-at needs -fs cofs"
	case to < 1:
		why = "-reshard-at needs -reshard-to"
	case !slices.Contains(phases, at):
		why = fmt.Sprintf("-reshard-at %q is not a phase (%s)", at, strings.Join(phases, ", "))
	default:
		return ReshardHook(at, to, d.Service.Reshard, os.Stderr, tool)
	}
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, why)
	os.Exit(2)
	return nil
}

// ReshardHook builds the phase hook behind the tools' -reshard-at
// flags (the hook argument of trace.Run): when the named phase starts
// it invokes reshard (the metadata plane's Reshard method) toward `to`
// shards, reporting failure to errw under the tool's name. One
// constructor shared by mdtest and metarates, so the mid-run trigger's
// contract cannot drift between them.
func ReshardHook(at string, to int, reshard func(p *sim.Proc, n int) error, errw io.Writer, tool string) func(p *sim.Proc, phase string) {
	return func(p *sim.Proc, phase string) {
		if phase != at {
			return
		}
		if err := reshard(p, to); err != nil {
			fmt.Fprintf(errw, "%s: mid-run reshard: %v\n", tool, err)
		}
	}
}
