// Package rpc is the explicit request/response transport between COFS
// clients and metadata shards (and between shards). The paper's
// prototype modeled every metadata operation as a synchronous call with
// its network and CPU costs charged inline in the service methods; this
// package lifts those costs into a dedicated layer so transport-level
// behaviour — batching, coalescing, per-shard backpressure, server
// callbacks — has one place to live.
//
// A Conn is one client's channel to one shard. Requests are typed
// messages (an Op tag plus explicit request/response payload sizes);
// the operation body itself travels as a closure that the transport
// executes under the server host's CPU, exactly where the old inline
// model ran it, so a single un-batched Call is cost-identical to the
// netsim.Call it replaces.
//
// With batching enabled, concurrent requests from the same client to
// the same shard coalesce into one wire round trip: while a round trip
// is in flight, later requests queue; when the wire frees, the first
// queued requester is promoted to carrier and flies the whole queue as
// one message (one RPC header, one serialization, one hop-latency
// charge for the lot — the mdtest create storm and the Readdir +
// N×Getattr pattern collapse to a handful of round trips).
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

// MaxBatch bounds how many queued requests one carrier flies in a
// single wire round trip (keeps response transfers from growing without
// bound under extreme fan-in).
const MaxBatch = 64

// Request is one typed message on a Conn. ReqBytes is the request
// payload size; CPU is the server-side dispatch cost charged before the
// body runs; Run executes the operation body under the server's CPU.
// The reply size is RespFixed, or — for directory listings and other
// replies whose size depends on served data — the result of RespBytes,
// evaluated after Run (and taking precedence when non-nil). Static-size
// replies should set RespFixed: a RespBytes closure is an allocation on
// every call.
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
	// Wire is the number of wire round trips actually performed.
	Wire int64
	// Batches is the number of round trips that carried more than one
	// request.
	Batches int64
	// Batched is the number of requests that rode in such a round trip.
	Batched int64
	// Recalls is the number of server→client callback messages
	// delivered on this Conn.
	Recalls int64
}

// Add accumulates o's counters into s (aggregation over conns).
func (s *ConnStats) Add(o ConnStats) {
	s.Calls += o.Calls
	s.Wire += o.Wire
	s.Batches += o.Batches
	s.Batched += o.Batched
	s.Recalls += o.Recalls
}

// Conn is one client's channel to one server (a COFS client to a
// metadata shard, or a shard to a peer shard). It is not safe for use
// outside the simulation's cooperative scheduler.
type Conn struct {
	net    *netsim.Net
	local  *netsim.Host // client side
	remote *netsim.Host // server side
	batch  bool

	busy  bool
	queue []*pending

	Stats ConnStats

	// Trace, when non-nil, records the transport child spans of every
	// round trip (rpc.send / rpc.queue / rpc.serve / rpc.recv) on the
	// calling proc's track. Nil (the default) costs nothing.
	Trace *obs.Tracer
	// Queue, when non-nil, mirrors the coalescing queue's depth into a
	// gauge (the per-shard queue-depth metric).
	Queue *obs.Gauge
}

type pending struct {
	req  Request
	wg   *sim.WaitGroup
	done bool
	lead bool
	ride []*pending // batch handed to a promoted carrier
}

// Dial creates a channel from a client host to a server host. With
// batch false every Call is its own wire round trip, cost-identical to
// netsim.Call.
func Dial(net *netsim.Net, local, remote *netsim.Host, batch bool) *Conn {
	return &Conn{net: net, local: local, remote: remote, batch: batch}
}

// Remote returns the server-side host of the channel.
func (c *Conn) Remote() *netsim.Host { return c.remote }

// Call performs one request/response exchange, blocking the calling
// proc for the full round trip (plus any coalescing wait when batching
// is enabled).
func (c *Conn) Call(p *sim.Proc, r Request) {
	c.Stats.Calls++
	if !c.batch {
		// Unbatched calls are the default path and fly alone: no pending
		// record, no batch slice — just the wire round trip.
		c.flyOne(p, &r)
		return
	}
	if c.busy {
		pd := &pending{req: r, wg: sim.NewWaitGroup(c.net.Env())}
		pd.wg.Add(1)
		c.queue = append(c.queue, pd)
		if c.Queue != nil {
			c.Queue.Set(int64(len(c.queue)))
		}
		pd.wg.Wait(p)
		if pd.done {
			return // a carrier flew our request for us
		}
		// Promoted to carrier: fly the handed batch (which includes pd).
		c.fly(p, pd.ride)
		c.land(p, pd.ride)
		return
	}
	c.busy = true
	c.flyOne(p, &r)
	c.land(p, nil)
}

// flyOne is fly for a single request, with no batch bookkeeping. The
// cost sequence is identical: request transfer, CPU dispatch + body,
// reply size taken while the CPU is still held, response transfer. The
// trace hooks charge no virtual time; they only stamp the phases.
func (c *Conn) flyOne(p *sim.Proc, r *Request) {
	c.Stats.Wire++
	tr := c.Trace
	if tr != nil {
		tr.Begin(p, "", "rpc.send", -1)
	}
	c.net.Transfer(p, c.local, c.remote, r.ReqBytes)
	if tr != nil {
		tr.Next(p, "rpc.queue")
	}
	c.remote.CPU.Acquire(p)
	if tr != nil {
		tr.Next(p, "rpc.serve")
	}
	if r.CPU > 0 {
		p.Sleep(r.CPU)
	}
	r.Run(p)
	resp := r.respSize()
	c.remote.CPU.Release(p)
	if tr != nil {
		tr.Next(p, "rpc.recv")
	}
	c.net.Transfer(p, c.remote, c.local, resp)
	if tr != nil {
		tr.End(p)
	}
}

// fly performs one wire round trip for a batch: one request transfer,
// the server CPU dispatch and bodies, one response transfer.
func (c *Conn) fly(p *sim.Proc, batch []*pending) {
	c.Stats.Wire++
	if len(batch) > 1 {
		c.Stats.Batches++
		c.Stats.Batched += int64(len(batch))
	}
	var req int64
	for _, pd := range batch {
		req += pd.req.ReqBytes
	}
	tr := c.Trace
	if tr != nil {
		tr.Begin(p, "", "rpc.send", -1)
	}
	c.net.Transfer(p, c.local, c.remote, req)
	if tr != nil {
		tr.Next(p, "rpc.queue")
	}
	c.remote.CPU.Acquire(p)
	if tr != nil {
		tr.Next(p, "rpc.serve")
	}
	var resp int64
	for _, pd := range batch {
		if pd.req.CPU > 0 {
			p.Sleep(pd.req.CPU)
		}
		pd.req.Run(p)
		resp += pd.req.respSize()
	}
	c.remote.CPU.Release(p)
	if tr != nil {
		tr.Next(p, "rpc.recv")
	}
	c.net.Transfer(p, c.remote, c.local, resp)
	if tr != nil {
		tr.End(p)
	}
}

// land delivers a landed batch's replies and hands the accumulated
// queue to the next carrier (or frees the wire).
func (c *Conn) land(p *sim.Proc, batch []*pending) {
	for _, pd := range batch {
		pd.done = true
		if pd.wg != nil && !pd.lead {
			pd.wg.Done()
		}
	}
	if len(c.queue) == 0 {
		c.busy = false
		return
	}
	n := len(c.queue)
	if n > MaxBatch {
		n = MaxBatch
	}
	next := c.queue[:n]
	c.queue = c.queue[n:]
	if c.Queue != nil {
		c.Queue.Set(int64(len(c.queue)))
	}
	lead := next[0]
	lead.lead = true
	lead.ride = next
	lead.wg.Done() // wake it; it flies the batch in its own time
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
