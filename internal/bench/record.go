package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cofs/internal/stats"
)

// Record is one benchmark's machine-readable result: the perf
// trajectory of the repo, emitted next to the human-readable benchmark
// output so CI can archive it (the bench smoke job uploads BENCH_*.json
// as artifacts) and trends stop living only in commit messages.
type Record struct {
	// Name identifies the benchmark (and sub-configuration), e.g.
	// "reshard-under-load/2to4".
	Name string `json:"name"`
	// Shards is the metadata shard count of the run (0 when not
	// meaningful).
	Shards int `json:"shards,omitempty"`
	// VmsPerOp is the paper's headline metric: virtual milliseconds per
	// operation.
	VmsPerOp float64 `json:"vms_per_op,omitempty"`
	// P50Ms/P99Ms are the per-operation latency percentiles of the
	// run's primary phase, in virtual milliseconds. Deterministic like
	// VmsPerOp (same seed, same distribution); zero when the benchmark
	// does not sample per-op latencies.
	P50Ms float64 `json:"p50_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
	// WallSeconds is the host (real) time one run of the benchmark took
	// — the harness-cost axis, as opposed to the simulated VmsPerOp.
	// Zero when not measured. Unlike every virtual-time field it is NOT
	// deterministic; the bench gate compares it with tolerance only.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// AllocsPerOp is host heap allocations per simulated operation over
	// the same run (runtime.MemStats.Mallocs delta divided by Ops).
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Ops is the simulated-operation count WallSeconds and AllocsPerOp
	// are normalized over.
	Ops int64 `json:"ops,omitempty"`
	// Extra holds named secondary metrics (dip ratios, recovery times,
	// MB/s...).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Counters snapshots the deployment's per-layer observability
	// counters at the end of the run.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Meter measures the host-side cost of a simulation run: wall-clock
// seconds and heap allocations (runtime.MemStats.Mallocs deltas).
// Benchmark loops meter every iteration with Start/Stop and keep the
// last interval — mirroring how they keep the last iteration's
// simulation result — then Fill the record they write.
type Meter struct {
	t0       time.Time
	mallocs0 uint64
	wall     float64
	allocs   uint64
}

// Start opens a measurement interval.
func (m *Meter) Start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs0 = ms.Mallocs
	m.t0 = time.Now()
}

// Stop closes the interval opened by the last Start.
func (m *Meter) Stop() {
	m.wall = time.Since(m.t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocs = ms.Mallocs - m.mallocs0
}

// Fill writes the last Start/Stop interval into r, normalizing
// allocations over ops simulated operations.
func (m *Meter) Fill(r *Record, ops int) {
	r.WallSeconds = m.wall
	r.Ops = int64(ops)
	if ops > 0 {
		r.AllocsPerOp = float64(m.allocs) / float64(ops)
	}
}

// SetCounters fills Record.Counters from a deployment counter set.
func (r *Record) SetCounters(c *stats.Counters) {
	r.Counters = make(map[string]int64)
	for _, name := range c.Names() {
		r.Counters[name] = c.Get(name)
	}
}

// SetSimCounters fills Record.Counters with only the simulation kernel's
// counters (sim.*) of a deployment counter set: the deterministic
// host-cost axis of a record that carries no layer counters.
func (r *Record) SetSimCounters(c *stats.Counters) {
	r.Counters = make(map[string]int64)
	for _, name := range c.Names() {
		if strings.HasPrefix(name, "sim.") {
			r.Counters[name] = c.Get(name)
		}
	}
}

// WriteRecord writes r as BENCH_<name>.json (path separators and
// spaces in the name become dashes) in the directory named by
// $COFS_BENCH_DIR, defaulting to the current directory. Benchmarks
// call it best-effort at the end of a run; the returned error is for
// callers that want to surface it.
func WriteRecord(r Record) error {
	dir := os.Getenv("COFS_BENCH_DIR")
	if dir == "" {
		dir = "."
	}
	name := strings.NewReplacer("/", "-", " ", "-", "\\", "-").Replace(r.Name)
	body, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", name)), append(body, '\n'), 0644)
}
