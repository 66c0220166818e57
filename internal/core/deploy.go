package core

import (
	"fmt"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/obs"
	"cofs/internal/stats"
	"cofs/internal/vfs"
)

// Deployment is a COFS layer installed over a testbed's file system: a
// metadata service plane (one shard per configured MetadataShards, each
// on its own blade) plus a FUSE-mounted COFS client per compute node
// (Fig. 3 of the paper).
type Deployment struct {
	Service *MDSCluster
	FSs     []*FS
	Mounts  []*vfs.Mount
}

// Deploy installs COFS on the testbed with the given placement policy
// (nil selects the paper's hash placement with the configured fanout and
// randomization). The service shards run on dedicated blades attached to
// the original blade-center switch, as in section IV; the paper's
// deployment is MetadataShards == 1.
func Deploy(tb *cluster.Testbed, place Placement) *Deployment {
	cfg := tb.Cfg
	if s := cfg.COFS.MetadataStore; s != "" && s != "mdb" {
		panic(fmt.Sprintf(`cofs: unknown metadata store %q: the only store is "mdb"`, s))
	}
	if place == nil {
		place = HashPlacement{
			Fanout:        cfg.COFS.DirFanout,
			RandomSubdirs: cfg.COFS.RandomSubdirs,
		}
	}
	// One observation scope for the whole deployment, handed to the
	// plane at construction so traces are complete from the first
	// operation and every later plane (standbys, and the one Promote
	// installs) reports into the same tracer, registry and counters.
	svc := newMDSCluster(tb, "cofs-mds", max(cfg.COFS.MetadataShards, 1), newScope(cfg.COFS), &objectNames{})
	svc.obs.planes = append(svc.obs.planes, svc)
	d := &Deployment{Service: svc}
	// Install-time initialization: the hash (and random) levels of the
	// object tree are formatted into the file system before any client
	// mounts it, so runtime creates land in directories that already
	// exist. Formatting is state, not simulated work: no process, no
	// token held, nothing to drain. Every client then shares one
	// read-only set of the pre-created directories.
	dirs := place.InitDirs()
	tb.FS.Format(0, 0700, dirs)
	installed := make(map[string]bool, len(dirs))
	for _, dir := range dirs {
		installed[dir] = true
	}
	for i, node := range tb.Nodes {
		fs := NewFS(svc, node, i, tb.Mounts[i], place,
			cfg.COFS, tb.Env.RNG(fmt.Sprintf("cofs.place.%d", i)))
		fs.installed = installed
		d.FSs = append(d.FSs, fs)
		// COFS is a userspace daemon: mount through the FUSE cost model.
		d.Mounts = append(d.Mounts, vfs.NewMount(fs, cfg.FUSE))
	}
	return d
}

// Tracer returns the deployment's span tracer, nil unless
// COFSParams.Trace enabled it at deploy time.
func (d *Deployment) Tracer() *obs.Tracer { return d.Service.obs.tr }

// Metrics returns the deployment's metrics registry — per-(op, shard)
// latency histograms, queue/lock gauges and the per-shard sliding
// request/row-move windows (the skew feed) — nil unless
// COFSParams.Metrics enabled it at deploy time.
func (d *Deployment) Metrics() *obs.Metrics { return d.Service.obs.m }

// Counters aggregates the deployment's per-layer observability
// counters: the RPC transport (client and shard-to-shard channels),
// the client cache (hits, misses, dentry/negative/listing hits,
// revocations, attribute-carrying listings and stataheads), the
// client's background removals of underlying files, the unlinks
// that waited for a removal slot and the removals that failed
// (removal.go), the service
// lease recalls, and the cross-shard
// transaction layer's row locks (acquisitions, conflicts, virtual time
// spent waiting), and the simulation kernel's own work (sim.Env.Stats).
// Tools print it; tests assert against it. Every figure is cumulative
// over the whole run: the transport sums every channel the deployment
// ever dialed and the service figures every plane that ever served, so
// a retirement or a failover never moves a counter backwards.
func (d *Deployment) Counters() *stats.Counters {
	c := stats.NewCounters()
	o := d.Service.obs
	ts := transport(o.client)
	c.Add("rpc.client.calls", ts.Calls)
	c.Add("rpc.client.roundtrips", ts.Wire)
	c.Add("rpc.client.lease-recalls", ts.Recalls)
	for _, fs := range d.FSs {
		cs := fs.CacheStats()
		c.Add("cache.attr-hits", cs.Hits)
		c.Add("cache.attr-misses", cs.Misses)
		c.Add("cache.dentry-hits", cs.DentryHits)
		c.Add("cache.negative-hits", cs.NegativeHits)
		c.Add("cache.listing-hits", cs.ListingHits)
		c.Add("cache.lease-installs", cs.Installs)
		c.Add("cache.lease-revoked", cs.Revocations)
		c.Add("cache.plus-listings", fs.Stats.PlusListings)
		c.Add("cache.stataheads", fs.Stats.Stataheads)
		c.Add("core.removals", fs.removing.Acquires)
		c.Add("core.removal_waits", fs.removing.Contended)
		c.Add("core.removal_failures", fs.Stats.RemovalFailures)
	}
	ps := transport(o.peer)
	c.Add("rpc.peer.calls", ps.Calls)
	c.Add("rpc.peer.roundtrips", ps.Wire)
	for _, svc := range o.planes {
		planeCounters(c, svc)
	}
	// The kernel underneath it all: what the run cost the simulator.
	ks := d.Service.net.Env().Stats()
	c.Add("sim.events", ks.Events)
	c.Add("sim.switches", ks.Switches)
	c.Add("sim.fast-sleeps", ks.FastSleeps)
	c.Add("sim.spawns", ks.Spawns)
	return c
}

// planeCounters adds the counters that live on one metadata plane into
// c — its request/lease totals, row-lock figures, reshard accounting,
// the shard stores' snapshot reads.
// Counters calls it for every plane that served; a standby plane's own
// counts join when Promote records it.
func planeCounters(c *stats.Counters, svc *MDSCluster) {
	ss := svc.Stats()
	c.Add("mds.requests", ss.Requests)
	c.Add("mds.lease-revocations", ss.Revocations)
	ls := svc.LockStats()
	c.Add("mds.lock-acquires", ls.Acquires)
	c.Add("mds.lock-shared", ls.SharedGrants)
	c.Add("mds.lock-upgrades", ls.Upgrades)
	c.Add("mds.lock-conflicts", ls.Conflicts)
	c.Add("mds.lock-wait-us", int64(ls.WaitTotal/time.Microsecond))
	rs := svc.ReshardStats()
	c.Add("mds.reshard-runs", rs.Reshards)
	c.Add("mds.reshard-epochs", rs.Epochs)
	c.Add("mds.reshard-groups-moved", rs.GroupsMoved)
	c.Add("mds.reshard-rows-moved", rs.RowsMoved)
	c.Add("mds.reshard-bytes-moved", rs.BytesMoved)
	c.Add("mds.reshard-redirects", rs.Redirects)
	c.Add("mds.reshard-refetches", rs.Refetches)
	c.Add("mds.reshard-lease-recalls", rs.Recalls)
	c.Add("mds.reshard-wal-handoff", rs.HandoffRecords)
	c.Add("mds.reshard-retired", rs.Retired)
	var views int64
	for _, s := range svc.built {
		views += s.DB.Views
	}
	c.Add("mdb.views", views)
}
