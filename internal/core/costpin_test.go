package core_test

import (
	"testing"

	"cofs/internal/experiments"
	"cofs/internal/params"
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
