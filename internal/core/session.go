package core

import (
	"cofs/internal/netsim"
	"cofs/internal/reshard"
	"cofs/internal/rpc"
	"cofs/internal/sim"
)

// Session is one client's connection to the metadata plane: a typed RPC
// channel (rpc.Conn) per shard, plus the client cache the shards grant
// leases into. All client↔MDS traffic flows through the session's
// conns; the per-operation network and CPU costs that the prototype
// charged inline in the Service methods live in the transport now.
type Session struct {
	node  int
	host  *netsim.Host
	cache *clientCache
	conns []*rpc.Conn
	// view is the shard-map version this client routes by (the epoch it
	// stamps its requests with — the stamp itself rides the RPC header
	// already charged to every message). It is refreshed only when a
	// shard redirects with ErrWrongEpoch, so with no migration in
	// flight the session shares the plane's settled version forever.
	view *reshard.Map
}

// Connect attaches a client to the plane: one channel per shard. The
// cache is the client's attribute/dentry cache; shards install
// lease-granted entries into it and recall them on conflicting
// mutations.
func (c *MDSCluster) Connect(host *netsim.Host, node int, cache *clientCache) *Session {
	sess := &Session{node: node, host: host, cache: cache, view: c.Maps.Current()}
	c.dialSession(sess)
	c.sessions = append(c.sessions, sess)
	return sess
}

// dialSession dials every channel sess lacks, one per shard of the
// plane. Connect and a grow both extend sessions through it.
func (c *MDSCluster) dialSession(sess *Session) {
	for i := len(sess.conns); i < len(c.shards); i++ {
		sess.conns = append(sess.conns, c.obs.dial(sess.host, c.shards[i], sessionChan))
	}
}

// refetchMap fetches the current shard-map version after a redirect:
// one round trip to shard 0, which serves the map on the coordinator's
// behalf. The response carries the map descriptor plus the moved set
// (modelled as a bitmap over the ids below the newborn boundary), so a
// refetch mid-migration costs what shipping the version really would.
func (sess *Session) refetchMap(p *sim.Proc, c *MDSCluster) {
	c.rstats.Refetches++
	sess.conns[0].Call(p, rpc.Request{
		Op: rpc.OpMapFetch, ReqBytes: 32, CPU: c.cfg.ServiceCPUPerOp / 4,
		Run: func(p *sim.Proc) { sess.view = c.Maps.Current() },
		RespBytes: func() int64 {
			return 128 + int64(sess.view.MovedCount)/8
		},
	})
}
