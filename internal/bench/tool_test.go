package bench_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// parseTool binds the shared tool flags to a fresh flag set and parses
// args into them.
func parseTool(t *testing.T, args ...string) *bench.ToolFlags {
	t.Helper()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := bench.BindToolFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func TestToolFlagsDefaultIsDefaultConfig(t *testing.T) {
	cfg := parseTool(t).Config()
	if !reflect.DeepEqual(cfg, params.Default()) {
		t.Fatalf("no flags gave %+v, want params.Default() %+v", cfg.COFS, params.Default().COFS)
	}
}

func TestToolFlagsEachSetsItsField(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want func(cfg *params.Config)
	}{
		{[]string{"-shards", "3"}, func(cfg *params.Config) { cfg.COFS.MetadataShards = 3 }},
		{[]string{"-attr-lease", "2s"}, func(cfg *params.Config) { cfg.COFS.AttrLease = 2 * time.Second }},
		{[]string{"-trace", "out.json"}, func(cfg *params.Config) { cfg.COFS.Trace = true }},
		{[]string{"-metrics"}, func(cfg *params.Config) { cfg.COFS.Metrics = true }},
		// The slow-op log reads spans, so it turns the tracer on.
		{[]string{"-slowlog", "1ms"}, func(cfg *params.Config) { cfg.COFS.Trace = true }},
		// Host profiles shape no deployment.
		{[]string{"-cpuprofile", "cpu.out", "-memprofile", "mem.out"}, func(*params.Config) {}},
	} {
		cfg := parseTool(t, tc.args...).Config()
		want := params.Default()
		tc.want(&want)
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("%v gave %+v, want %+v", tc.args, cfg.COFS, want.COFS)
		}
	}
	f := parseTool(t, "-cpuprofile", "cpu.out", "-memprofile", "mem.out", "-slowlog", "2ms", "-trace", "t.json")
	if f.CPUProfile != "cpu.out" || f.MemProfile != "mem.out" || f.Slowlog != 2*time.Millisecond || f.Trace != "t.json" {
		t.Errorf("flags not kept for the run: %+v", f)
	}
}

// TestToolFlagsReport deploys with the bound configuration and checks that the
// end-of-run report carries every section the flags asked for, and
// that the exported trace is valid JSON.
func TestToolFlagsReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	f := parseTool(t, "-shards", "2", "-metrics", "-slowlog", "1ns", "-trace", out)
	tb := cluster.New(1, 2, f.Config())
	d := core.Deploy(tb, nil)
	tb.Env.Spawn("mkdir", func(p *sim.Proc) {
		if err := d.Mounts[0].Mkdir(p, cluster.Ctx(0, 1), "/d", 0777); err != nil {
			t.Error(err)
		}
	})
	tb.Run()
	var b bytes.Buffer
	if err := f.Report(&b, tb, d); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{
		"== cofs per-layer counters ==",
		"== cofs latency histograms (virtual time) ==",
		"== cofs per-shard rates (sliding window) ==",
		"== cofs slowest spans (threshold 1ns) ==",
		"trace: ",
	} {
		if !strings.Contains(b.String(), section) {
			t.Errorf("report lacks %q:\n%s", section, b.String())
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatal("exported trace is not valid JSON")
	}
}

// TestReshardHookFiresOnlyAtItsPhase pins the -reshard-at hook: it
// reshards toward its target once, when its phase starts, ignores every
// other phase, and prints a reshard error under the tool's name.
func TestReshardHookFiresOnlyAtItsPhase(t *testing.T) {
	var calls []int
	fail := errors.New("plane busy")
	reshard := func(p *sim.Proc, n int) error {
		calls = append(calls, n)
		return fail
	}
	var errw bytes.Buffer
	hook := bench.ReshardHook("stat", 4, reshard, &errw, "metarates")
	for _, phase := range []string{"create", "utime", "open"} {
		hook(nil, phase)
	}
	if len(calls) != 0 || errw.Len() != 0 {
		t.Fatalf("hook fired outside its phase: calls %v, stderr %q", calls, errw.String())
	}
	hook(nil, "stat")
	if !reflect.DeepEqual(calls, []int{4}) {
		t.Fatalf("reshard calls = %v, want [4]", calls)
	}
	if want := "metarates: mid-run reshard: plane busy\n"; errw.String() != want {
		t.Errorf("stderr = %q, want %q", errw.String(), want)
	}
}
