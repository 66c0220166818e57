package core_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
	"cofs/internal/vfs/conformance"
)

// COFS must be semantically indistinguishable from the file system it
// interposes (section III: "the COFS prototype is POSIX compliant") at
// every point of the deployment space: commit mode, shard count,
// client cache, reshard batch size, standby shipping delay.
// TestConformanceMatrix runs the full battery — including the
// crash/recover, crash/promote and live-reshard capability cases —
// against the whole cross-product; the plain TestConformance variants
// keep the paper's default deployment and the cache extension directly
// greppable.

// shipDelay is how far the conformance deployments' hot standby ships
// behind the primary.
const shipDelay = 10 * time.Millisecond

// cofsSystem deploys a two-node COFS testbed for one conformance case,
// its hot standby shipping ship behind the primary, and wires every
// capability hook: crash/recover and standby-promote
// over the plane's WAL machinery, live reshard over the handoff
// protocol, and a second mount for the coherence cases.
func cofsSystem(seed int64, cfg params.Config, ship time.Duration) *conformance.System {
	tb := cluster.New(seed, 2, cfg)
	d := core.Deploy(tb, nil)
	sb := core.DeployStandby(tb, d, ship)
	tb.Run()
	return &conformance.System{
		Env:    tb.Env,
		Mount:  d.Mounts[0],
		User:   vfs.Ctx{Node: 0, PID: 1, UID: 1000, GID: 100},
		Other:  vfs.Ctx{Node: 0, PID: 2, UID: 2000, GID: 200},
		Root:   vfs.Ctx{Node: 0, PID: 3, UID: 0, GID: 0},
		Mount2: d.Mounts[1],
		User2:  vfs.Ctx{Node: 1, PID: 1, UID: 1000, GID: 100},
		Shards: cfg.COFS.MetadataShards,
		Check:  func() error { return d.Service.CheckInvariants() },
		Crash:  func() { d.Service.Crash() },
		Recover: func(p *sim.Proc) {
			d.Service.Recover(p)
			d.Service.AdoptIDCounter()
		},
		Promote: func(p *sim.Proc) { sb.Promote(d) },
		Reshard: func(p *sim.Proc, n int) error { return d.Service.Reshard(p, n) },
	}
}

// cofsCaps declares what a COFS deployment supports. Negative-dentry
// leases exist only in lease-cache mode; everything else — snapshot
// listings included, since they rest on the store's View — holds
// across the whole matrix.
func cofsCaps(cfg params.Config) conformance.Capabilities {
	return conformance.Capabilities{
		Permissions:          true,
		Hardlinks:            true,
		RenameOverNonempty:   true,
		NegativeDentryLeases: cfg.COFS.AttrLease > 0,
		CrashRecover:         true,
		Handoff:              true,
		SnapshotReads:        true,
	}
}

// cofsProvider builds the conformance provider for one deployment
// configuration, deriving a distinct deterministic seed per case from
// the configuration axes.
func cofsProvider(name string, seed int64, cfg params.Config, ship time.Duration) conformance.Provider {
	return conformance.Provider{
		Name:         name,
		Capabilities: cofsCaps(cfg),
		New: func(t *testing.T) *conformance.System {
			return cofsSystem(seed, cfg, ship)
		},
	}
}

// TestConformance runs the battery against the paper's default
// deployment (single shard, no client cache).
func TestConformance(t *testing.T) {
	conformance.Run(t, cofsProvider("cofs", 13, params.Default(), shipDelay))
}

// TestConformanceWithAttrCache repeats the battery with the client
// lease cache (the paper's section IV-B extension) enabled, its term the
// FUSE entry timeout rather than the matrix's 30 s: the cache must be
// invisible to correctness, only to timing.
func TestConformanceWithAttrCache(t *testing.T) {
	cfg := params.Default()
	cfg.COFS.AttrLease = cfg.FUSE.EntryTimeout
	conformance.Run(t, cofsProvider("cofs-attrcache", 17, cfg, shipDelay))
}

// TestConformanceMatrix is the provider-grade cross-product: every
// commit mode × shard count × client-cache mode × reshard batch size ×
// standby shipping delay, each running the full battery plus the
// crash/promote and reshard replays. Three axes keep the cell names of
// the axes they replaced, so every cell keeps its name and seed. The
// commit-mode axis: "mdb" is the default deployment, whose WAL is
// flushed every LogFlushInterval, and "mdls" runs the same store with
// synchronous group commit (LogFlushInterval 0), where a commit returns
// only once the disk holds it — the durability of the append-only log
// store that column was first written for. The reshard-batch axis:
// "shared" cells migrate the default 64 groups per batch, "excl" cells
// one (ReshardBatchRows 1), so a live reshard holds each group's rows
// exclusively in a batch of their own and crosses a batch boundary per
// group. The shipping axis: every cell's hot standby ships its WAL
// 10 ms behind the primary, except the "sbreads" cells — once the cells
// that routed reads through the standby, which now serves none — whose
// standby ships each commit as it lands, so the battery also runs with
// no shipping window at all. The excl cells start at 2 shards and the
// sbreads cells run the default batch only, the bounds of the lock-mode
// axis the batch axis replaced, so that the seeds derived from the cell
// order stay put.
func TestConformanceMatrix(t *testing.T) {
	axis := 0
	for _, commit := range []string{"mdb", "mdls"} {
		for _, shards := range []int{1, 2, 4} {
			for _, lease := range []bool{false, true} {
				for _, excl := range []bool{false, true} {
					for _, sbr := range []bool{false, true} {
						if excl && shards == 1 {
							continue
						}
						if sbr && excl {
							continue
						}
						axis++
						cfg := params.Default()
						if commit == "mdls" {
							cfg.COFS.LogFlushInterval = 0
						}
						cfg.COFS.MetadataShards = shards
						if excl {
							cfg.COFS.ReshardBatchRows = 1
						}
						if lease {
							cfg.COFS.AttrLease = 30 * time.Second
						}
						ship := shipDelay
						if sbr {
							ship = 0
						}
						mode := "nolease"
						if lease {
							mode = "lease"
						}
						locks := "shared"
						if excl {
							locks = "excl"
						}
						name := fmt.Sprintf("%s/%dshards/%s-%s", commit, shards, mode, locks)
						if sbr {
							name += "-sbreads"
						}
						seed := int64(100 + axis)
						t.Run(name, func(t *testing.T) {
							conformance.Run(t, cofsProvider("cofs-"+name, seed, cfg, ship))
						})
					}
				}
			}
		}
	}
}
