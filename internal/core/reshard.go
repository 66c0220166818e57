package core

import (
	"errors"
	"fmt"
	"sort"

	"cofs/internal/lock"
	"cofs/internal/mdb"
	"cofs/internal/reshard"
	"cofs/internal/rpc"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file is the data plane of online resharding (docs/resharding.md;
// the epoch-versioned map and the migration plan live in
// internal/reshard). MDSCluster.Reshard re-points the serving plane at
// a new shard count while it keeps serving:
//
//  1. Grow the plane if needed: new shards on new hosts, the peer mesh
//     and every session's channels extended, attached standby planes
//     grown in lockstep. Nothing routes to the new shards until the map
//     says so.
//  2. Publish the first migration epoch (reshard.Coordinator.Begin):
//     allocators switch to the target placement above the newborn
//     boundary, so everything created from here on is born where it
//     will live; a shard the shrink drains stops allocating and
//     delegates the inode half of creates (Service.allocSite).
//  3. Migrate the planned groups — the rows at or below the boundary
//     whose owner changes — in bounded batches. Each batch takes its
//     groups' Exclusive row locks through the ordinary lock table, so
//     it serializes against in-flight transactions with no new
//     deadlock argument (the canonical order is shared); ships the rows
//     together with their WAL checkpoint cursor over the coordinator's
//     RPC channels, and the target forces the cursor to its own log
//     before acknowledging; installs the epoch that flips ownership;
//     deletes the source rows; and recalls every client lease the
//     source still holds on them. Because the delete happens only after
//     the durability ack and the epoch install, a crash at any instant
//     leaves at least one durable copy of every group, findable from
//     the coordinator's epoch log (recoverReshard).
//  4. Settle (Finish): the map is pure strided placement at the target
//     count, indistinguishable from a fresh deploy's. A shrink then
//     retires the drained shards entirely — sessions drop their
//     channels, standby shipping stops, hosts are released
//     (retireDrained) — and the settling plane alone counts the
//     retirement.
//
// Requests racing a move are redirected (ErrWrongEpoch) and retry off a
// refetched map; see service.go's claim/missErr and session.go.

// ErrReshardInterrupted is returned by Reshard when the installed step
// hook (OnReshardStep) aborted the migration: the map is left
// mid-flight, exactly as a coordinator crash would leave it, for
// Crash/Recover or Standby.Promote to pick up.
var ErrReshardInterrupted = errors.New("core: reshard interrupted by step hook")

// ReshardPoint names one observable instant of the migration loop, for
// crash-injection tests and cofsctl's -crash-at flag.
type ReshardPoint string

// The migration loop's observable instants, in per-batch order. Every
// batch opens with one batch-start point; each (source, target) sweep
// inside it then passes imported (the target acknowledged the durable
// WAL handoff; the epoch is not yet installed), installed (ownership
// flipped; the source rows still exist) and deleted (the source rows
// are gone — the sweep's, and eventually the batch's, boundary).
const (
	ReshardBatchStart ReshardPoint = "batch-start"
	ReshardImported   ReshardPoint = "imported"
	ReshardInstalled  ReshardPoint = "installed"
	ReshardDeleted    ReshardPoint = "deleted"
)

// OnReshardStep installs a hook called with a monotonically increasing
// sequence number at every ReshardPoint of subsequent migrations.
// Returning true aborts the migration with ErrReshardInterrupted —
// locks released, map left mid-flight — which is how the crash sweep
// tests stop the coordinator at a chosen instant before crashing the
// plane. Mid-reshard recovery ignores the hook. nil uninstalls.
func (c *MDSCluster) OnReshardStep(fn func(seq int, at ReshardPoint) bool) {
	c.onReshardStep = fn
	c.reshardSeq = 0
}

// stepAbort fires the step hook at one migration point.
func (c *MDSCluster) stepAbort(at ReshardPoint) bool {
	if c.onReshardStep == nil || c.recovering {
		return false
	}
	seq := c.reshardSeq
	c.reshardSeq++
	return c.onReshardStep(seq, at)
}

// Reshard migrates the metadata plane to n shards while it keeps
// serving, blocking the calling process for the duration of the
// migration (virtual time; concurrent traffic proceeds, throttled only
// by each batch's row locks). It returns an error — without touching
// the plane — when a migration is already in flight. Resharding to the
// current count is a no-op.
func (c *MDSCluster) Reshard(p *sim.Proc, n int) error {
	if n < 1 {
		return fmt.Errorf("core: reshard to %d shards", n)
	}
	cur := c.Maps.Current()
	if c.resharding || cur.Migrating() {
		return reshard.ErrBusy
	}
	if n == cur.Target() {
		return nil
	}
	// Latched before the first plane mutation: a concurrent Reshard
	// must lose the race here, not at Begin — by then the loser would
	// already have grown the plane and re-pointed every allocator.
	c.resharding = true
	defer func() { c.resharding = false }()

	c.growTo(n)
	c.ensureReshardRig()

	// From here to Begin nothing yields, so the boundary, the allocator
	// switch, the plan scan and the epoch are one instant: no allocation
	// or commit can slip between the plan and the epoch that starts
	// executing it. Store transactions are atomic at an instant too (an
	// id is allocated and its row visible in the same instant), so no
	// create is ever mid-commit here.
	//
	// The newborn boundary: every id allocated so far is at or below
	// it, every id allocated after Begin is above it.
	var split vfs.Ino
	for _, s := range c.shards {
		if s.canAlloc() && s.nextID-1 > split {
			split = s.nextID - 1
		}
	}
	// Re-point every allocator at the target placement; drained shards
	// stop allocating.
	for i, s := range c.shards {
		if i < n {
			s.setAllocStride(i, n, split)
		} else {
			s.setAllocStride(-1, 0, 0)
		}
	}
	// Plan: every live group whose owner changes.
	moves := reshard.PlanMoves(cur.New, n, uint64(split), c.liveGroups())
	if _, err := c.Maps.Begin(n, uint64(split)); err != nil {
		return err
	}
	c.rstats.Epochs++

	if err := c.runMigration(p, moves); err != nil {
		return err
	}
	return c.settleReshard(p)
}

// liveGroups collects every inode id on the plane (each stands for its
// row group), without timing charges: callers charge the scan where it
// belongs (Reshard scans at the epoch's instant, recovery after the
// replay).
func (c *MDSCluster) liveGroups() []uint64 {
	var groups []uint64
	for _, s := range c.shards {
		s.inodes.Each(func(id vfs.Ino, _ inodeRow) {
			groups = append(groups, uint64(id))
		})
	}
	return groups
}

// runMigration executes a batched plan. Shared by Reshard and
// mid-reshard recovery; only a step-hook abort can make it fail.
func (c *MDSCluster) runMigration(p *sim.Proc, moves []reshard.Move) error {
	batch := c.cfg.ReshardBatchRows
	if batch <= 0 {
		batch = 64
	}
	for _, b := range reshard.Batches(moves, batch) {
		if c.stepAbort(ReshardBatchStart) {
			return ErrReshardInterrupted
		}
		if err := c.moveBatch(p, b); err != nil {
			return err
		}
	}
	return nil
}

// settleReshard installs the settled map and completes the lifecycle:
// drained shards are checked empty and then retired.
func (c *MDSCluster) settleReshard(p *sim.Proc) error {
	c.Maps.Finish()
	c.rstats.Epochs++
	c.rstats.Reshards++

	// A drained shard owns nothing now and nothing routes to it; its
	// tables must be empty (newborns were never born there, and every
	// old group moved off). A leftover row would be unreachable — fail
	// loudly rather than lose it.
	n := c.Maps.Current().Target()
	for i := n; i < len(c.shards); i++ {
		s := c.shards[i]
		if s.inodes.Len() != 0 || s.dentries.Len() != 0 {
			return fmt.Errorf("core: drained shard %d not empty after reshard (%d inodes, %d dentries)",
				i, s.inodes.Len(), s.dentries.Len())
		}
	}
	// The settling plane counts the retirement; a standby plane retiring
	// its drained shards in lockstep (Standby.retire) does not count it
	// again.
	c.rstats.Retired += int64(len(c.shards) - n)
	c.retireDrained(p)
	return nil
}

// growTo extends the plane to n serving shards: new shards on new
// hosts (named like AddServiceHosts names them), the peer mesh
// completed, every attached standby plane grown shard-for-shard, and
// every connected session dialed to the new shards. Runs
// without a yield; nothing routes at the new shards until an epoch says
// so.
func (c *MDSCluster) growTo(n int) {
	for i := len(c.shards); i < n; i++ {
		host := c.net.AddHost(fmt.Sprintf("%s%d", c.hostPrefix, i), c.cfg.ServiceWorkers, 0)
		c.shards = append(c.shards, newShard(c.net, host, c.full, c, i))
	}
	c.meshPeers()
	for _, sb := range c.standbys {
		sb.grow(c)
	}
	for _, sess := range c.sessions {
		c.dialSession(sess)
	}
}

// ensureReshardRig provisions the coordinator's own small host (the
// "small coordinator" owning the shard maps) and its migration channel
// to every shard. Lazy: a plane that never reshards never grows it.
func (c *MDSCluster) ensureReshardRig() {
	if c.reshardHost == nil {
		c.reshardHost = c.net.AddHost("cofs-reshard", 1, 0)
	}
	for i := len(c.reshardConns); i < len(c.shards); i++ {
		c.reshardConns = append(c.reshardConns, c.obs.dial(c.reshardHost, c.shards[i], peerChan))
	}
}

// retireDrained completes a shrink after the map settles: the drained
// shards — empty, unrouted, owning nothing — leave the plane entirely.
// Sessions and surviving shards drop their channels to them (the
// deployment scope keeps those channels counted), attached standby
// planes drain and stop their shipping, and the hosts are released back
// to the testbed. A no-op unless shards were drained.
func (c *MDSCluster) retireDrained(p *sim.Proc) {
	n := c.Maps.Current().Target()
	if n < 1 || n >= len(c.shards) {
		return
	}
	for _, sess := range c.sessions {
		sess.conns = sess.conns[:min(n, len(sess.conns))]
	}
	for _, s := range c.shards[:n] {
		s.peers = s.peers[:min(n, len(s.peers))]
	}
	c.reshardConns = c.reshardConns[:min(n, len(c.reshardConns))]
	for _, sb := range c.standbys {
		sb.retire(p, n)
	}
	for _, s := range c.shards[n:] {
		c.net.ReleaseHost(s.host)
	}
	c.shards = c.shards[:n]
}

// movedRows is one (source, target) sweep's row freight.
type movedRows struct {
	inodes []inodeRow
	dents  []dentryRow
	bytes  int64
}

// handoffFrame is the wire framing of the WAL cursor riding a migration
// transfer: a fixed header plus a per-record frame (table tag, op and
// key) on top of the row payloads already counted in the freight.
func handoffFrame(h *mdb.Handoff) int64 { return 32 + 16*int64(h.Len()) }

// moveBatch migrates one batch of groups. The batch's Exclusive row
// locks are held across the whole copy→install→delete→recall span, so
// every transaction footprint touching these rows — including the
// discovered-row extensions of removes and renames — is either
// entirely before the move (its effects are copied) or entirely after
// (it is routed, or redirected, to the target shard).
func (c *MDSCluster) moveBatch(p *sim.Proc, batch []reshard.Move) error {
	reqs := make([]lock.Req, 0, len(batch))
	for _, mv := range batch {
		reqs = append(reqs, lock.X(c.shards[0].inoKey(vfs.Ino(mv.Group))))
	}
	reqs = lock.SortReqs(reqs)
	c.obs.tr.Begin(p, "", "reshard.batch", -1)
	defer c.obs.tr.End(p)
	c.rowLocks.Acquire(p, reqs, nil)
	defer c.rowLocks.Release(p, reqs)

	// One locked sweep per (source, target) pair, in deterministic
	// order; each sweep installs its own epoch between the copy and the
	// source delete.
	type pair struct{ from, to int }
	sweeps := make(map[pair][]vfs.Ino)
	var order []pair
	for _, mv := range batch {
		k := pair{mv.From, mv.To}
		if _, ok := sweeps[k]; !ok {
			order = append(order, k)
		}
		sweeps[k] = append(sweeps[k], vfs.Ino(mv.Group))
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].from != order[j].from {
			return order[i].from < order[j].from
		}
		return order[i].to < order[j].to
	})
	for _, k := range order {
		if err := c.movePair(p, k.from, k.to, sweeps[k]); err != nil {
			return err
		}
	}
	return nil
}

// readGroups reads the given groups' rows inside one source
// transaction, returning the freight (for transfer sizing and the
// delete list) and the WAL checkpoint cursor to ship with it.
func readGroups(p *sim.Proc, from *Service, ids []vfs.Ino) (movedRows, *mdb.Handoff) {
	var freight movedRows
	handoff := &mdb.Handoff{}
	from.DB.Transaction(p, func(tx *mdb.Tx) {
		for _, id := range ids {
			if row, ok := mdb.Get(tx, from.inodes, id); ok {
				freight.inodes = append(freight.inodes, row)
				mdb.HandoffPut(handoff, from.inodes, id, row)
				freight.bytes += 160 + int64(len(row.Path))
			}
			// The migration reads each entry's row it ships: a table
			// operation per row, besides the index read.
			for ent := range mdb.IndexRead(tx, from.dentries, "parent", uint64(id)).All() {
				k := dentryKey{Parent: ent.Parent, Name: ent.Name}
				if de, ok := mdb.Get(tx, from.dentries, k); ok {
					freight.dents = append(freight.dents, de)
					mdb.HandoffPut(handoff, from.dentries, k, de)
					freight.bytes += 64 + int64(len(k.Name))
				}
			}
		}
	})
	return freight, handoff
}

// shipHandoff transfers one sweep's rows and WAL cursor from source to
// target over the peer channel and blocks until the target's durable
// acknowledgement: the reply only travels after ImportHandoff has
// forced the cursor records to the target's own log. Mirrors peerCall's
// non-blocking-server discipline (the source's scheduler thread is
// released for the flight).
func (c *MDSCluster) shipHandoff(p *sim.Proc, from, to *Service, freight movedRows, handoff *mdb.Handoff) {
	from.Stats.PeerCalls++
	to.cluster.obs.tr.Begin(p, "", "reshard.handoff", to.shardID)
	defer to.cluster.obs.tr.End(p)
	from.host.CPU.Release(p)
	from.peers[to.shardID].Call(p, rpc.Request{
		Op: rpc.OpHandoff, ReqBytes: freight.bytes + handoffFrame(handoff), CPU: to.cfg.ServiceCPUPerOp,
		Run: func(p *sim.Proc) {
			to.DB.ImportHandoff(p, handoff)
		},
		RespFixed: 64,
	})
	from.host.CPU.Acquire(p)
	c.rstats.HandoffRecords += int64(handoff.Len())
}

// deleteGroups removes the freight's rows from the source in one
// durable transaction (the migration's source-side delete, and
// recovery's stray-copy cleanup).
func deleteGroups(p *sim.Proc, from *Service, freight movedRows) {
	from.DB.Transaction(p, func(tx *mdb.Tx) {
		for _, row := range freight.inodes {
			mdb.Delete(tx, from.inodes, row.ID)
		}
		for _, de := range freight.dents {
			mdb.Delete(tx, from.dentries, dentryKey{Parent: de.Parent, Name: de.Name})
		}
	})
}

// movePair migrates the given groups from one shard to another: a
// coordinator RPC to the source whose body reads the rows, ships them
// — together with their WAL checkpoint cursor — to the target, waits
// for the target's durable acknowledgement, installs the ownership
// epoch, deletes the source rows and recalls the source's client
// leases on them. The copy and the delete are separate source
// transactions; the gap between them is safe because the groups' X
// locks (held by moveBatch) exclude every writer and the epoch is
// installed before the delete, so a reader racing the gap either sees
// the intact source rows (bit-equal to the target's, nothing can
// write) or a miss it diagnoses as a move (missErr). And a crash in
// the gap — or anywhere else — is safe because the delete only ever
// runs after the target's copy is forced durable and the epoch log
// points at it.
func (c *MDSCluster) movePair(p *sim.Proc, src, dst int, ids []vfs.Ino) error {
	from, to := c.shards[src], c.shards[dst]
	groups := make([]uint64, len(ids))
	for i, id := range ids {
		groups[i] = uint64(id)
	}
	var interrupted bool
	c.reshardConns[src].Call(p, rpc.Request{
		Op: rpc.OpReshard, ReqBytes: 64 + int64(8*len(ids)), CPU: from.cfg.ServiceCPUPerOp,
		Run: func(p *sim.Proc) {
			freight, handoff := readGroups(p, from, ids)
			c.shipHandoff(p, from, to, freight, handoff)
			if interrupted = c.stepAbort(ReshardImported); interrupted {
				return
			}
			// Flip ownership before the source rows die: from here on a
			// reader's miss at the source means "moved", never "gone".
			// The target's staged records become its owned history; the
			// source's history of these rows stops counting as owned.
			c.Maps.Commit(groups)
			to.DB.SealHandoff(handoff.Len())
			from.DB.RetireHandoff(handoff.Len())
			c.rstats.Epochs++
			c.rstats.GroupsMoved += int64(len(groups))
			rows := int64(len(freight.inodes) + len(freight.dents))
			c.rstats.RowsMoved += rows
			c.rstats.BytesMoved += freight.bytes
			if c.obs.m != nil {
				// Feed the destination's row-move window: arriving rows
				// are the rebalance cost a reshard puts on the target.
				c.obs.m.AddRowMoves(dst, rows, p.Now())
			}
			if interrupted = c.stepAbort(ReshardInstalled); interrupted {
				return
			}
			deleteGroups(p, from, freight)
			// Recall every client lease the source still holds on the
			// moved groups — attribute, positive and negative dentry
			// leases alike (a stale negative would otherwise hide a name
			// created later at the target).
			before := from.Stats.Revocations
			from.recallGroupLeases(p, ids)
			c.rstats.Recalls += from.Stats.Revocations - before
			interrupted = c.stepAbort(ReshardDeleted)
		},
		RespFixed: 64,
	})
	if interrupted {
		return ErrReshardInterrupted
	}
	return nil
}

// recoverReshard finishes a migration that a crash (Recover) or a
// failover (Standby.Promote) caught mid-flight. The coordinator's
// epoch log — the in-memory Coordinator, standing for the
// coordinator's own durable log — says exactly which groups committed;
// the handoff protocol guarantees a durable copy of every group exists
// at the shard the log assigns it, except for one promoted-standby
// window handled below. Recovery is therefore two idempotent passes:
//
//  1. Reconcile. For every group present somewhere on the plane, the
//     current epoch names its owner. A copy on any other shard is a
//     replayed leftover of a half-applied batch — an import whose
//     epoch never installed, or a source delete the flush window
//     swallowed — and is deleted, durably. The one exception arises
//     only on a promoted standby: the epoch installed but the import
//     had not shipped when the primaries died, so the owner lacks the
//     group while the old owner still has it (the delete ships after
//     the import, so it cannot have applied either). The move is
//     rolled forward instead: copy to the owner with the same durable
//     handoff, then delete the stray.
//  2. Resume. Re-plan the remaining moves from the live groups —
//     filtering out groups the epoch log already committed — and run
//     the ordinary migration loop to completion, then settle and
//     retire exactly as an uninterrupted Reshard would.
//
// Both passes replay idempotently: re-imported batches overwrite equal
// rows, re-deleted strays are already gone, and the moved log refuses
// nothing because committed groups are filtered out of the plan.
func (c *MDSCluster) recoverReshard(p *sim.Proc) {
	cur := c.Maps.Current()
	if !cur.Migrating() {
		return
	}
	c.resharding = true
	c.recovering = true
	defer func() { c.resharding = false; c.recovering = false }()
	c.ensureReshardRig()

	// Where does each group's inode row actually live? (A group's
	// dentries always travel with its inode row — every
	// transaction that touches them is atomic and flush/ship boundaries
	// are transaction-aligned.)
	holders := make(map[uint64][]int)
	for si, s := range c.shards {
		si := si
		s.inodes.Each(func(id vfs.Ino, _ inodeRow) {
			holders[uint64(id)] = append(holders[uint64(id)], si)
		})
	}
	gids := make([]uint64, 0, len(holders))
	for g := range holders {
		gids = append(gids, g)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })

	strays := make(map[int][]vfs.Ino) // shard -> stray groups to delete
	for _, g := range gids {
		owner := cur.Of(g)
		ownerHas := false
		for _, si := range holders[g] {
			if si == owner {
				ownerHas = true
			}
		}
		for _, si := range holders[g] {
			if si == owner {
				continue
			}
			if !ownerHas {
				// Promoted-standby roll-forward: the surviving copy is
				// unique (copies only ever exist at a group's old and
				// new owner, and the owner lacks it), so move it home
				// before deleting anything.
				c.rollForward(p, si, owner, []vfs.Ino{vfs.Ino(g)})
			} else {
				strays[si] = append(strays[si], vfs.Ino(g))
			}
		}
	}
	shardOrder := make([]int, 0, len(strays))
	for si := range strays {
		shardOrder = append(shardOrder, si)
	}
	sort.Ints(shardOrder)
	for _, si := range shardOrder {
		c.dropStrays(p, si, strays[si])
	}

	// Resume the plan from the epoch log: every remaining live group
	// whose owner changes and whose move has not committed.
	moves := reshard.PlanMoves(cur.Old, cur.New, cur.SplitID, c.liveGroups())
	pending := moves[:0]
	for _, mv := range moves {
		if !cur.Moved(mv.Group) {
			pending = append(pending, mv)
		}
	}
	if err := c.runMigration(p, pending); err != nil {
		// The hook is ignored while recovering; nothing else fails.
		panic(fmt.Sprintf("core: resumed migration failed: %v", err))
	}
	if err := c.settleReshard(p); err != nil {
		panic(fmt.Sprintf("core: resumed migration failed to settle: %v", err))
	}
}

// rollForward replays one interrupted move in the forward direction
// during recovery: durable handoff to the owner the epoch log already
// appointed, then delete at the surviving source. No epoch installs —
// the groups' move already committed.
func (c *MDSCluster) rollForward(p *sim.Proc, src, dst int, ids []vfs.Ino) {
	from, to := c.shards[src], c.shards[dst]
	c.reshardConns[src].Call(p, rpc.Request{
		Op: rpc.OpReshard, ReqBytes: 64 + int64(8*len(ids)), CPU: from.cfg.ServiceCPUPerOp,
		Run: func(p *sim.Proc) {
			freight, handoff := readGroups(p, from, ids)
			c.shipHandoff(p, from, to, freight, handoff)
			to.DB.SealHandoff(handoff.Len())
			from.DB.RetireHandoff(handoff.Len())
			c.rstats.RowsMoved += int64(len(freight.inodes) + len(freight.dents))
			c.rstats.BytesMoved += freight.bytes
			deleteGroups(p, from, freight)
		},
		RespFixed: 64,
	})
}

// dropStrays deletes replayed leftover copies of groups the epoch log
// owns elsewhere — the durable copy at the owner is authoritative, the
// stray is a half-applied batch's residue.
func (c *MDSCluster) dropStrays(p *sim.Proc, src int, ids []vfs.Ino) {
	from := c.shards[src]
	c.reshardConns[src].Call(p, rpc.Request{
		Op: rpc.OpReshard, ReqBytes: 64 + int64(8*len(ids)), CPU: from.cfg.ServiceCPUPerOp,
		Run: func(p *sim.Proc) {
			freight, _ := readGroups(p, from, ids)
			deleteGroups(p, from, freight)
		},
		RespFixed: 64,
	})
}
