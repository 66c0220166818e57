package core_test

import (
	"fmt"
	"testing"

	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/vfs/conformance"
)

// The MemFS oracle (conformance.Oracle): the re-organized underlying
// layout must be unobservable through COFS's virtual namespace.
// oracleSeeds are the sequences most deployments run; a failure names
// its seed, and a list of that one seed replays it.
var oracleSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}

// cofsOracle runs the oracle's seeds on a one-node deployment built by
// core.Rig(seed, tweaks) per sequence, logs its summary with the
// cross-shard peer calls and client cache hits the sequences made, and
// returns those two counts.
func cofsOracle(t *testing.T, name string, seed int64, seeds []int64, tweaks ...func(*params.Config)) (peers, hits int64) {
	summary := conformance.Oracle(t, conformance.Provider{
		Name:         name,
		Capabilities: conformance.Capabilities{Hardlinks: true},
		New: func(t *testing.T) *conformance.System {
			tb, d := core.Rig(t, seed, 1, tweaks...)
			return &conformance.System{Env: tb.Env, Mount: d.Mounts[0], User: ctx, Check: func() error {
				cs := d.FSs[0].CacheStats()
				peers += d.Service.Stats().PeerCalls
				hits += cs.Hits + cs.DentryHits
				return d.Service.CheckInvariants()
			}}
		},
	}, seeds)
	t.Logf("%s, %d peer calls, %d cache hits", summary, peers, hits)
	return peers, hits
}

// TestCOFSMemFSOracleProperty runs the oracle on the paper's default
// deployment, over the 25 sequences after oracleSeeds: the deep
// property's 1-shard case runs oracleSeeds on the same deployment.
func TestCOFSMemFSOracleProperty(t *testing.T) {
	cofsOracle(t, "cofs", 1, []int64{26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50})
}

// TestCOFSMemFSOracleDeepProperty checks the property at 1, 2 and 4
// metadata shards: shard count (and with it the cross-shard two-phase
// paths for mkdir, rename, link and remove) must be observationally
// invisible too. Above one shard the sequences must reach those paths.
func TestCOFSMemFSOracleDeepProperty(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			peers, _ := cofsOracle(t, fmt.Sprintf("cofs-%dshards", shards), 1, oracleSeeds, core.Shards(shards))
			if shards > 1 && peers == 0 {
				t.Error("no sequence made a cross-shard peer call")
			}
		})
	}
}

// TestCOFSOracleWithLeaseCache repeats the deep property with the
// coherent lease cache on: lease-served hits and recalls must never
// change what a client observes, at 1 and 2 shards.
func TestCOFSOracleWithLeaseCache(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			if _, hits := cofsOracle(t, fmt.Sprintf("cofs-leases-%dshards", shards), 1, oracleSeeds, core.Shards(shards), core.Leases); hits == 0 {
				t.Error("the lease cache served no hit")
			}
		})
	}
}

// TestCOFSOracleWithAttrCache repeats the property with the client
// lease cache on, its term the FUSE entry timeout: caching must never
// change what a single client observes of its own operations.
func TestCOFSOracleWithAttrCache(t *testing.T) {
	if _, hits := cofsOracle(t, "cofs-attrcache", 2, oracleSeeds, func(c *params.Config) { c.COFS.AttrLease = c.FUSE.EntryTimeout }); hits == 0 {
		t.Error("the attribute cache served no hit")
	}
}
