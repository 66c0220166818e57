package core

import (
	"time"

	"cofs/internal/lock"
	"cofs/internal/netsim"
	"cofs/internal/obs"
	"cofs/internal/params"
	"cofs/internal/rpc"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file wires the observability plane (internal/obs) through the
// metadata plane. Deploy builds one scope per deployment and hands it to
// every plane at construction; shards, channels and lock tables are
// wired as they are built, so a layer cannot exist unwired. The tracer
// and registry are nil by default: a nil tracer's span calls return at
// once and every metrics hook below nil-checks the registry, so a
// deployment that never enables them pays nothing — no allocations, no
// virtual time, bit-identical costs (docs/observability.md, "Zero cost
// when off").
//
// Span taxonomy rooted here:
//
//	op.<name>      one client operation, on the client host's track
//	lock.wait      a contended row-lock acquisition (retroactive)
//	2pc.validate / 2pc.prepare / 2pc.commit
//	               phases of a cross-shard mutation, on the
//	               coordinator's track (twophase.go)
//	reshard.batch / reshard.handoff
//	               row-migration work (reshard.go)
//
// The transport (rpc.send/queue/serve/recv) and WAL
// (wal.commit/flush/sync) child spans are recorded by their own layers
// through the Conn.Trace and DB.SetTrace hooks set at birth.

// scope is the observation scope of one deployment: the optional tracer
// and metrics registry (either may be nil: trace-only, metrics-only or
// obs-off runs), plus the lists the cumulative per-layer counters sum
// over. Every channel is entered in its role's list when dial creates
// it, and every plane that served is recorded by Deploy and Promote;
// Deployment.Counters sums over both, so a retired channel, shard or
// plane stays counted where it was entered.
type scope struct {
	tr *obs.Tracer
	m  *obs.Metrics
	// client holds every session channel, peer every shard-to-shard
	// and migration channel: the rpc.client.* and rpc.peer.* counters.
	client, peer []*rpc.Conn
	// planes are the metadata planes that served, in order: the
	// deployed primary, then each promoted standby.
	planes []*MDSCluster
}

// newScope builds a deployment's scope as COFSParams.Trace/Metrics ask.
func newScope(cfg params.COFSParams) *scope {
	o := &scope{}
	if cfg.Trace {
		o.tr = obs.NewTracer()
	}
	if cfg.Metrics {
		o.m = obs.NewMetrics()
	}
	return o
}

// chanRole is what a channel carries, which decides how dial wires it.
type chanRole uint8

const (
	// sessionChan is a session's channel to a primary shard: a client
	// channel sampling the shard's worker-queue gauge.
	sessionChan chanRole = iota
	// peerChan is a shard-to-shard or coordinator-to-shard channel.
	peerChan
)

// dial is the one place internal/core opens a channel: from local to
// shard to, traced when the scope traces, entered in its role's total.
func (o *scope) dial(local *netsim.Host, to *Service, role chanRole) *rpc.Conn {
	conn := rpc.Dial(to.net, local, to.host, false)
	conn.Trace = o.tr
	switch role {
	case sessionChan:
		if o.m != nil {
			conn.Queue = o.m.QueueGauge(to.shardID)
		}
		o.client = append(o.client, conn)
	default:
		o.peer = append(o.peer, conn)
	}
	return conn
}

// transport sums the counters of a role's channels.
func transport(conns []*rpc.Conn) rpc.ConnStats {
	var out rpc.ConnStats
	for _, c := range conns {
		out.Add(c.Stats)
	}
	return out
}

// rowLocks builds a plane's row-lock table, wired at birth: each
// contended acquisition becomes a retroactive lock.wait span (safe
// because the waiter was parked for the whole window — its track gained
// no events in between) plus a latency sample, and every grant refreshes
// the lock-table occupancy gauge. The lock-schedule fuzz harness
// installs its own OnGrant on tables no scope owns.
func (o *scope) rowLocks(env *sim.Env) *lock.RowLocks {
	rl := lock.NewRowLocks(env)
	tr, m := o.tr, o.m
	if tr != nil || m != nil {
		rl.OnWait = func(p *sim.Proc, key lock.RowKey, mode lock.Mode, start time.Duration) {
			tr.Complete(p, "", "lock.wait", start, key.Shard)
			if m != nil {
				m.Observe("lock.wait", key.Shard, p.Now()-start)
			}
		}
	}
	if m != nil {
		rl.OnGrant = func(p *sim.Proc, key lock.RowKey, mode lock.Mode) {
			m.LockGauge().Set(int64(rl.Len()))
		}
	}
	return rl
}

// opObs is the span/metrics context of one client operation, returned
// by obsBegin and closed by obsEnd. The zero value (obs off) makes both
// calls no-ops, so the wrappers in mds.go need no branching of their
// own.
type opObs struct {
	op    string
	shard int
	start time.Duration
}

// obsBegin opens the op.<name> span for one client operation on the
// calling proc's track (grouped under the client host) and feeds the
// routing shard's request window — the per-shard load obs.Skew condenses
// for an operator deciding whether to Reshard. ino is the operation's
// routing key; the shard is resolved only when the plane is enabled.
func (c *MDSCluster) obsBegin(p *sim.Proc, sess *Session, op string, ino vfs.Ino) opObs {
	o := c.obs
	if o.tr == nil && o.m == nil {
		return opObs{}
	}
	shard := c.Of(ino)
	o.tr.Begin(p, sess.host.Name, op, shard)
	if o.m != nil {
		o.m.AddRequest(shard, p.Now())
	}
	return opObs{op: op, shard: shard, start: p.Now()}
}

// obsEnd closes the operation span and records its end-to-end latency
// in the (op, shard) histogram.
func (c *MDSCluster) obsEnd(p *sim.Proc, ob opObs) {
	if ob.op == "" {
		return
	}
	o := c.obs
	o.tr.End(p)
	if o.m != nil {
		o.m.Observe(ob.op, ob.shard, p.Now()-ob.start)
	}
}
