// Package rpc is the explicit request/response transport between COFS
// clients and metadata shards (and between shards). The paper's
// prototype modeled every metadata operation as a synchronous call with
// its network and CPU costs charged inline in the service methods; this
// package lifts those costs into a dedicated layer so transport-level
// behaviour — per-shard queueing, server callbacks — has one place to
// live.
//
// A Conn is one client's channel to one shard. Requests are typed
// messages (an Op tag plus explicit request/response payload sizes);
// the operation body itself travels as a closure that the transport
// executes under the server host's CPU, exactly where the old inline
// model ran it, so a Call is cost-identical to the netsim.Call it
// replaces. Like the prototype, every metadata operation is one
// exchange flown by its caller: no request outlives its caller's
// stack, so neither the Request nor its closures escape.
package rpc

import (
	"time"

	"cofs/internal/netsim"
	"cofs/internal/obs"
	"cofs/internal/sim"
)

// Op tags one metadata message type. Tags drive per-operation counters
// and make the wire format explicit; payload contents travel in the
// request body closure.
type Op uint8

// Client→shard operations, one per metadata call the COFS client
// issues, plus the shard↔shard message kind. Shard→client lease
// recalls travel as Conn.Callback notifications, counted by
// ConnStats.Recalls.
const (
	OpLookup Op = iota
	OpGetattr
	OpSetattr
	OpCreate
	OpRemove
	OpRename
	OpLink
	OpReadlink
	OpOpenInfo
	OpReaddir
	OpWriteBack
	OpStatFS
	// OpPeer is a shard-to-shard message of the two-phase protocol.
	OpPeer
	// OpMapFetch fetches the current shard-map version after an
	// ErrWrongEpoch redirect (online resharding, docs/resharding.md).
	OpMapFetch
	// OpReshard is a coordinator-to-shard message of the row-migration
	// protocol (batch copy, delete, lease recall).
	OpReshard
	// OpHandoff is the source-to-target migration transfer: the moved
	// rows plus their WAL checkpoint cursor, acknowledged only after
	// the target has forced the cursor records to its own log
	// (docs/resharding.md, "Shard lifecycle & crash consistency").
	OpHandoff
)

// Request is one typed message on a Conn. ReqBytes is the request
// payload size; CPU is the server-side dispatch cost charged before the
// body runs; Run executes the operation body under the server's CPU.
// The reply size is RespFixed, or — for directory listings and other
// replies whose size depends on served data — the result of RespBytes,
// evaluated after Run (and taking precedence when non-nil).
type Request struct {
	Op        Op
	ReqBytes  int64
	CPU       time.Duration
	Run       func(p *sim.Proc)
	RespFixed int64
	RespBytes func() int64
}

// respSize returns the reply's wire size; call only after Run.
func (r *Request) respSize() int64 {
	if r.RespBytes != nil {
		return r.RespBytes()
	}
	return r.RespFixed
}

// ConnStats counts transport-level events on one Conn.
type ConnStats struct {
	// Calls is the number of requests submitted.
	Calls int64
	// Wire is the number of wire round trips performed: one per call.
	Wire int64
	// Recalls is the number of server→client callback messages
	// delivered on this Conn.
	Recalls int64
}

// Add accumulates o's counters into s (aggregation over conns).
func (s *ConnStats) Add(o ConnStats) {
	s.Calls += o.Calls
	s.Wire += o.Wire
	s.Recalls += o.Recalls
}

// Conn is one client's channel to one server (a COFS client to a
// metadata shard, or a shard to a peer shard). It is not safe for use
// outside the simulation's cooperative scheduler.
type Conn struct {
	net    *netsim.Net
	local  *netsim.Host // client side
	remote *netsim.Host // server side

	Stats ConnStats

	// Trace, when non-nil, records the transport child spans of every
	// round trip (rpc.send / rpc.queue / rpc.serve / rpc.recv) on the
	// calling proc's track. Nil (the default) costs nothing.
	Trace *obs.Tracer
	// Queue, when non-nil, samples the server's worker-queue depth (the
	// requests already waiting for a worker) as each request arrives:
	// the wait the rpc.queue span times.
	Queue *obs.Gauge
}

// Dial creates a channel from a client host to a server host. batch has
// no effect; it goes once the repository benchmark stops passing it.
func Dial(net *netsim.Net, local, remote *netsim.Host, batch bool) *Conn {
	return &Conn{net: net, local: local, remote: remote}
}

// Call performs one request/response exchange on the calling proc,
// blocking it for the full round trip: request transfer, CPU dispatch +
// body, reply size taken while the CPU is still held, response
// transfer. Concurrent calls on one Conn overlap; they meet only at the
// server's worker pool. The trace hooks charge no virtual time; they
// only stamp the phases.
func (c *Conn) Call(p *sim.Proc, r Request) {
	c.Stats.Calls++
	c.Stats.Wire++
	c.Trace.Begin(p, "", "rpc.send", -1)
	c.net.Transfer(p, c.local, c.remote, r.ReqBytes)
	if c.Queue != nil {
		c.Queue.Set(int64(c.remote.CPU.QueueLen()))
	}
	c.Trace.Next(p, "rpc.queue")
	c.remote.CPU.Acquire(p)
	c.Trace.Next(p, "rpc.serve")
	if r.CPU > 0 {
		p.Sleep(r.CPU)
	}
	r.Run(p)
	resp := r.respSize()
	c.remote.CPU.Release(p)
	c.Trace.Next(p, "rpc.recv")
	c.net.Transfer(p, c.remote, c.local, resp)
	c.Trace.End(p)
}

// Callback sends a server→client notification on the channel (a lease
// recall): one transfer in the reverse direction plus the handler run
// under the client host's CPU. The caller is the server-side proc; the
// invalidation the handler performs has already been applied at the
// mutation's commit instant, so the message charges the cost of the
// recall without reordering its effect.
func (c *Conn) Callback(p *sim.Proc, bytes int64, fn func(p *sim.Proc)) {
	c.Stats.Recalls++
	netsim.OneWay(p, c.net, c.remote, c.local, bytes, fn)
}
