package core

import (
	"time"

	"cofs/internal/lock"
	"cofs/internal/obs"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file wires the observability plane (internal/obs) through the
// metadata plane. The plane is nil by default and every hook below
// starts with a nil check, so a deployment that never enables it pays
// nothing — no allocations, no virtual time, bit-identical costs
// (docs/observability.md, "Zero cost when off").
//
// Span taxonomy rooted here:
//
//	op.<name>      one client operation, on the client host's track
//	lock.wait      a contended row-lock acquisition (retroactive)
//	2pc.validate / 2pc.prepare / 2pc.commit
//	               phases of a cross-shard mutation, on the
//	               coordinator's track (twophase.go)
//	standby.read   a standby-served (or fallen-back) read (standby.go)
//	reshard.batch / reshard.handoff
//	               row-migration work (reshard.go)
//
// The transport (rpc.send/queue/serve/recv) and WAL
// (wal.commit/flush/sync) child spans are recorded by their own layers
// once the Conn.Trace / DB.SetTrace hooks below are set.

// obsPlane bundles the optional tracer and metrics registry one
// MDSCluster reports into. Either half may be nil (trace-only or
// metrics-only runs).
type obsPlane struct {
	tr *obs.Tracer
	m  *obs.Metrics
}

// EnableObs attaches an observability plane to the cluster and wires
// every existing shard, session and migration channel into it. Shards
// and sessions created later (growTo, Connect) are wired at creation.
// Call with at least one non-nil argument; before any client traffic
// for complete traces.
func (c *MDSCluster) EnableObs(tr *obs.Tracer, m *obs.Metrics) {
	if tr == nil && m == nil {
		return
	}
	c.obs = &obsPlane{tr: tr, m: m}
	if m != nil {
		m.GrowShards(len(c.shards))
	}
	for i := range c.shards {
		c.wireShardObs(i)
	}
	for _, sess := range c.sessions {
		c.wireSessionObs(sess)
	}
	for _, conn := range c.reshardConns {
		conn.Trace = tr
	}
	c.wireLockObs()
}

// Tracer returns the cluster's tracer, nil when tracing is off.
func (c *MDSCluster) Tracer() *obs.Tracer {
	if c.obs == nil {
		return nil
	}
	return c.obs.tr
}

// Metrics returns the cluster's metrics registry, nil when metrics are
// off.
func (c *MDSCluster) Metrics() *obs.Metrics {
	if c.obs == nil {
		return nil
	}
	return c.obs.m
}

// wireShardObs hooks shard i's own event sources into the plane: its
// database (WAL spans, stamped at the Engine seam so every store
// backend is covered) and its peer channels (transport spans of the
// two-phase protocol).
func (c *MDSCluster) wireShardObs(i int) {
	o := c.obs
	if o == nil {
		return
	}
	s := c.shards[i]
	if o.tr != nil {
		s.DB.SetTrace(o.tr, s.host.Name)
		for _, pc := range s.peers {
			if pc != nil {
				pc.Trace = o.tr
			}
		}
	}
}

// wireSessionObs hooks a session's channels into the plane: transport
// spans on every conn, and the channel to shard i sampling that shard's
// worker-queue depth into its queue gauge.
func (c *MDSCluster) wireSessionObs(sess *Session) {
	o := c.obs
	if o == nil {
		return
	}
	for i, conn := range sess.conns {
		if o.tr != nil {
			conn.Trace = o.tr
		}
		if o.m != nil && i < o.m.Shards() {
			conn.Queue = o.m.QueueGauge(i)
		}
	}
	for _, conn := range sess.sbconns {
		if o.tr != nil {
			conn.Trace = o.tr
		}
	}
}

// wireLockObs hooks the row-lock table: each contended acquisition
// becomes a retroactive lock.wait span (safe because the waiter was
// parked for the whole window — its track gained no events in between)
// plus a latency sample, and every grant refreshes the lock-table
// occupancy gauge. Overwrites any prior hooks; the lock-schedule fuzz
// harness installs its own OnGrant but never enables obs.
func (c *MDSCluster) wireLockObs() {
	o := c.obs
	rl := c.rowLocks
	if o == nil || rl == nil {
		return
	}
	if o.tr != nil || o.m != nil {
		tr, m := o.tr, o.m
		rl.OnWait = func(p *sim.Proc, key lock.RowKey, mode lock.Mode, start time.Duration) {
			if tr != nil {
				tr.Complete(p, "", "lock.wait", start, key.Shard)
			}
			if m != nil {
				m.Observe("lock.wait", key.Shard, p.Now()-start)
			}
		}
	}
	if o.m != nil {
		m := o.m
		rl.OnGrant = func(p *sim.Proc, key lock.RowKey, mode lock.Mode) {
			m.LockGauge().Set(int64(rl.Len()))
		}
	}
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
// routing shard's request window — the skew signal the auto-reshard
// controller consumes. ino is the operation's routing key; the shard is
// resolved only when the plane is enabled.
func (c *MDSCluster) obsBegin(p *sim.Proc, sess *Session, op string, ino vfs.Ino) opObs {
	o := c.obs
	if o == nil {
		return opObs{}
	}
	shard := c.Of(ino)
	if o.tr != nil {
		o.tr.Begin(p, sess.host.Name, op, shard)
	}
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
	if o.tr != nil {
		o.tr.End(p)
	}
	if o.m != nil {
		o.m.Observe(ob.op, ob.shard, p.Now()-ob.start)
	}
}

// sbObs is the span/metrics context of one standby read attempt; like
// opObs, the zero value makes the end call a no-op.
type sbObs struct {
	start time.Duration
	si    int
	on    bool
}

// obsBegin opens the standby.read span before the standby RPC flies —
// it cannot be opened retroactively afterwards, because the traced
// transport child spans land on the same track while the call is in
// flight. Whether the read was served or fell back is recorded in the
// metrics at obsEnd instead.
func (sb *Standby) obsBegin(p *sim.Proc, si int) sbObs {
	o := sb.primary.obs
	if o == nil {
		return sbObs{}
	}
	if o.tr != nil {
		o.tr.Begin(p, "", "standby.read", si)
	}
	return sbObs{start: p.Now(), si: si, on: true}
}

// obsEnd closes the standby.read span and samples the attempt's latency
// as standby.serve or standby.fallback on the shard it was routed to.
func (sb *Standby) obsEnd(p *sim.Proc, ob sbObs, served bool) {
	if !ob.on {
		return
	}
	o := sb.primary.obs
	if o.tr != nil {
		o.tr.End(p)
	}
	if o.m != nil {
		op := "standby.serve"
		if !served {
			op = "standby.fallback"
		}
		o.m.Observe(op, ob.si, p.Now()-ob.start)
	}
}

// span opens a named child span on the calling proc's track when the
// plane traces, reporting whether it did — pass the result to spanEnd.
// The server-side helpers (twophase.go, reshard.go) use it so their
// phase spans nest inside whatever the client opened.
func (s *Service) span(p *sim.Proc, name string) bool {
	if s.cluster.obs == nil || s.cluster.obs.tr == nil {
		return false
	}
	s.cluster.obs.tr.Begin(p, "", name, s.shardID)
	return true
}

// spanEnd closes a span opened by span (no-op when open is false).
func (s *Service) spanEnd(p *sim.Proc, open bool) {
	if open {
		s.cluster.obs.tr.End(p)
	}
}

// spanNext ends the current phase span and opens a sibling (no-op when
// open is false) — the two-phase protocol walks validate→prepare→commit
// with it.
func (s *Service) spanNext(p *sim.Proc, open bool, name string) {
	if open {
		s.cluster.obs.tr.Next(p, name)
	}
}
