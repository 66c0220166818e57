package core_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/core"
	"cofs/internal/experiments"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// TestStoreAbsoluteCostPin holds the default deployment to the absolute
// figure recorded in bench/baseline.json, not just to a sibling run:
// the BenchmarkMetadataCache nocache-1shards storm (seed 1). The pin
// was 0.525928 from the provider registry's introduction until the
// storm's 24 readdirs of a 256-entry directory became snapshot reads
// (mdb.DB.View): each used to hold the shard's transaction mutex for
// 514 per-row sleeps, stalling every utime behind it), and 0.454666
// from then until write transactions left that mutex too (the storm's
// utimes now overlap each other; the stats beside them were redrawn),
// and 0.455145 until those listings stopped carrying attributes nobody
// cached (names-only: 256 fewer row reads and 24 KiB less on the wire
// each, so the stats queued behind them wait less), and 0.442409 until
// a names-only listing read its dentry rows in one index read instead
// of one Get each (256 fewer table operations per listing).
// If this moves, a change altered the simulation, not just the wiring.
func TestStoreAbsoluteCostPin(t *testing.T) {
	const want = 0.432923 // bench/baseline.json metadata-cache/nocache-1shards
	sum, _ := experiments.ClientCacheStorm(1, params.Default())
	if sum.N() != 6144 {
		t.Fatalf("storm measured %d stats, baseline measured 6144", sum.N())
	}
	if sum.MeanMs() != want {
		t.Fatalf("default store drifted from the recorded baseline: %v vms/op, want %v", sum.MeanMs(), want)
	}
}

// TestInstallerNotSpecial: the deployment's object tree is formatted as
// state, so the node it was formatted from is an ordinary client. Once
// each node has made its own directory, a create and a stat in it cost
// node 0 exactly the virtual time and network messages they cost node
// 1; an installer that kept the bucket paths it resolved while
// installing would pay less. Rig itself runs nothing: a drain after it
// pops no event.
func TestInstallerNotSpecial(t *testing.T) {
	// No FUSE crossing cost: its jitter is one stream both nodes draw
	// from in turn, so it would tell their turns apart, not the nodes.
	tb, d := core.Rig(t, 1, 2, func(c *params.Config) { c.FUSE.CrossingTime = 0 })
	tb.Run()
	if st := tb.Env.Stats(); st != (sim.Stats{}) || tb.Env.Now() != 0 {
		t.Fatalf("the deployment ran simulated work: %+v, clock at %v", st, tb.Env.Now())
	}
	core.Play(t, tb, d, core.Mkdir(0, "/n0", 0777), core.Mkdir(1, "/n1", 0777))
	cost := func(node int) (time.Duration, int64) {
		start, msgs := tb.Env.Now(), tb.Net.Messages
		path := fmt.Sprintf("/n%d/f", node)
		core.Play(t, tb, d, core.Create(node, path, 0644), core.Stat(node, path))
		return tb.Env.Now() - start, tb.Net.Messages - msgs
	}
	t0, m0 := cost(0)
	t1, m1 := cost(1)
	if t0 != t1 || m0 != m1 {
		t.Fatalf("node 0 paid (%v, %d msgs), node 1 paid (%v, %d msgs): the installer is special", t0, m0, t1, m1)
	}
}
