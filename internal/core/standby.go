package core

import (
	"time"

	"cofs/internal/mdb"
	"cofs/internal/rpc"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file is the standby read path (COFSParams.StandbyReads): the
// read-mostly half of the metadata protocol — Lookup, Getattr, Readdir,
// ReaddirPlus — served from a shard's standby instead of its primary,
// without ever serving a stale row.
//
// Freshness is proved, not assumed. Every committed record on a tracked
// primary stamps its row with the record's absolute commit sequence
// (mdb.TrackStamps), and the shard's replica exposes a cursor — the
// highest commit sequence it has fully applied (mdb.Replica.Cursor).
// A row whose last-commit stamp is at or below the cursor is therefore
// byte-identical on primary and standby at this instant: the stamp IS
// the row's latest record, and the standby has applied it. Such a read
// is not merely "bounded-staleness" fresh — it equals the primary's
// current committed value, at any shipping delay.
//
// The stamp peek models the client presenting a commit-sequence hint it
// learned from the primary (the standard stale-free standby protocol);
// peeking the primary's table directly is the simulator's oracle for
// that hint, in the same spirit as the lease table's Peek-at-grant
// discipline (lease.go): decisions are made from state that is
// linearizable in virtual time, and every cost — the RPC round trip,
// the standby host's CPU, the table op time — is still charged.
//
// When the proof fails — cursor invalid (mid-resync, post-crash), stamp
// above the cursor, foreign child, migration in flight — the standby
// answers with a redirect the client pays for by retrying at the
// primary: two round trips, counted in mds.standby-fallbacks. The
// standby never guesses.
//
// Each body reads the standby's tables through the same snapshot read
// the primary's scans use (mdb.DB.View): yield-free at one instant, so
// no ship round can interleave mid-scan and tear the proof, with the
// table op time charged afterwards in one block. No leases are granted
// here: leases are the primary's (standby-served reads don't populate
// the client cache, and recalls keep flowing from the primary alone).

// pauseStandbyReads suspends standby serving for the duration of a
// reshard (called at Reshard start): mid-migration a source shard's
// standby could prove a deletion fresh that is really a move, and serve
// ENOENT for a row alive at the target shard.
func (c *MDSCluster) pauseStandbyReads() {
	for _, sb := range c.standbys {
		if sb.serveReads {
			sb.paused = true
		}
	}
}

// resumeStandbyReads re-enables standby serving once the migration has
// settled (called by settleReshard, after the standby plane has grown
// or retired to the new shape).
func (c *MDSCluster) resumeStandbyReads() {
	for _, sb := range c.standbys {
		if sb.serveReads {
			sb.paused = false
		}
	}
}

// route is the client-side gate: the shard index to try, or false when
// the read must go straight to the primary (serving paused, migration
// in flight, or the session has no channel to that standby shard yet).
// A false here is free — no RPC was issued, no fallback is counted.
func (sb *Standby) route(sess *Session, ino vfs.Ino) (int, bool) {
	if sb.paused {
		return 0, false
	}
	cur := sb.primary.Maps.Current()
	if cur.Migrating() {
		return 0, false
	}
	si := cur.Of(uint64(ino))
	if si >= len(sess.sbconns) || si >= len(sb.Replicas) {
		return 0, false
	}
	return si, true
}

// fresh re-checks the serving gate on the standby host (the world may
// have moved while the request was on the wire) and returns the shard's
// trusted replication cursor. False means redirect.
func (sb *Standby) fresh(si int, ino vfs.Ino) (int64, bool) {
	if sb.paused || si >= len(sb.Replicas) || si >= len(sb.Cluster.shards) {
		return 0, false
	}
	cur := sb.primary.Maps.Current()
	if cur.Migrating() || cur.Of(uint64(ino)) != si {
		return 0, false
	}
	return sb.Replicas[si].Cursor()
}

// sbCall performs one client->standby RPC over the session's standby
// channel, charging the same wire bytes and dispatch CPU the primary
// would for the op.
func sbCall[T any](p *sim.Proc, sess *Session, si int, op rpc.Op, req, resp int64, cpu time.Duration, fn func(p *sim.Proc) T) T {
	var out T
	sess.sbconns[si].Call(p, rpc.Request{
		Op: op, ReqBytes: req, CPU: cpu, RespFixed: resp,
		Run: func(p *sim.Proc) { out = fn(p) },
	})
	return out
}

// sbCallDyn is sbCall with the response size computed from the result
// (directory listings).
func sbCallDyn[T any](p *sim.Proc, sess *Session, si int, op rpc.Op, req int64, cpu time.Duration, fn func(p *sim.Proc) T, resp func(T) int64) T {
	var out T
	sess.sbconns[si].Call(p, rpc.Request{
		Op: op, ReqBytes: req, CPU: cpu,
		Run:       func(p *sim.Proc) { out = fn(p) },
		RespBytes: func() int64 { return resp(out) },
	})
	return out
}

// sbAttrReply is attrReply plus the served bit: false means the standby
// could not prove the read fresh and the caller must retry at the
// primary (the RPC that learned this is the redirect's cost).
type sbAttrReply struct {
	attr   vfs.Attr
	err    error
	served bool
}

// lookup resolves (parent, name) from the standby when every row the
// primary's Lookup would touch is provably covered by the shard's
// replication cursor. Mirrors Service.Lookup's dirty-read body, minus
// lease grants and minus the cross-shard hop (a foreign child falls
// back: the peer protocol stays on the primary plane).
func (sb *Standby) lookup(p *sim.Proc, sess *Session, parent vfs.Ino, name string) (vfs.Attr, error, bool) {
	si, ok := sb.route(sess, parent)
	if !ok {
		return vfs.Attr{}, nil, false
	}
	st := sb.Cluster.shards[si]
	pr := sb.primary.shards[si]
	ob := sb.obsBegin(p, si)
	r := sbCall(p, sess, si, rpc.OpLookup, 128, 192, st.cfg.ServiceCPUPerOp*3/4, func(p *sim.Proc) sbAttrReply {
		cursor, ok := sb.fresh(si, parent)
		if !ok {
			return sbAttrReply{}
		}
		var out sbAttrReply
		st.DB.View(p, func(tx *mdb.Tx) {
			dk := dentryKey{Parent: parent, Name: name}
			if stamp, ok := pr.dentries.Stamp(dk); ok && stamp > cursor {
				return
			}
			de, deOK := mdb.Get(tx, st.dentries, dk)
			if !deOK {
				// The name provably does not exist (its last record — if it
				// ever had one — was a delete the cursor covers). Mirror the
				// primary's miss path off the parent's inode, which must be
				// covered too before its type can be trusted.
				if stamp, ok := pr.inodes.Stamp(parent); ok && stamp > cursor {
					tx.Abort()
					return
				}
				din, dirOK := mdb.Get(tx, st.inodes, parent)
				out = sbAttrReply{err: vfs.ErrNotExist, served: true}
				if dirOK && din.Type != vfs.TypeDir {
					out.err = vfs.ErrNotDir
				}
				return
			}
			if sb.primary.Of(de.Child) != si {
				// The child's inode lives on another shard: the one-hop peer
				// read stays on the primary plane.
				tx.Abort()
				return
			}
			if stamp, ok := pr.inodes.Stamp(de.Child); ok && stamp > cursor {
				tx.Abort()
				return
			}
			row, rowOK := mdb.Get(tx, st.inodes, de.Child)
			if !rowOK {
				out = sbAttrReply{err: vfs.ErrNotExist, served: true}
				return
			}
			out = sbAttrReply{attr: row.attr(), served: true}
		})
		return out
	})
	sb.obsEnd(p, ob, r.served)
	if !r.served {
		sb.Fallbacks++
		return vfs.Attr{}, nil, false
	}
	sb.Reads++
	return r.attr, r.err, true
}

// getattr returns id's attributes from the standby when the inode row's
// last commit is covered by the shard's replication cursor. A key with
// no stamp at all never had a committed record on the primary, so its
// absence is fresh by construction and ENOENT is served directly.
func (sb *Standby) getattr(p *sim.Proc, sess *Session, id vfs.Ino) (vfs.Attr, error, bool) {
	si, ok := sb.route(sess, id)
	if !ok {
		return vfs.Attr{}, nil, false
	}
	st := sb.Cluster.shards[si]
	pr := sb.primary.shards[si]
	ob := sb.obsBegin(p, si)
	r := sbCall(p, sess, si, rpc.OpGetattr, 96, 192, st.cfg.ServiceCPUPerOp*3/4, func(p *sim.Proc) sbAttrReply {
		cursor, ok := sb.fresh(si, id)
		if !ok {
			return sbAttrReply{}
		}
		if stamp, ok := pr.inodes.Stamp(id); ok && stamp > cursor {
			return sbAttrReply{}
		}
		out := sbAttrReply{err: vfs.ErrNotExist, served: true}
		st.DB.View(p, func(tx *mdb.Tx) {
			if row, ok := mdb.Get(tx, st.inodes, id); ok {
				out = sbAttrReply{attr: row.attr(), served: true}
			}
		})
		return out
	})
	sb.obsEnd(p, ob, r.served)
	if !r.served {
		sb.Fallbacks++
		return vfs.Attr{}, nil, false
	}
	sb.Reads++
	return r.attr, r.err, true
}

type sbReaddirReply struct {
	entries []vfs.DirEntry
	attrs   []vfs.Attr
	err     error
	served  bool
}

// readdir lists dir from the standby. Membership is sound because every
// dentry mutation's transaction also writes the parent directory's inode
// row (Create/Remove/Rename/Link all bump nlink or mtime), and a
// transaction's records enter the WAL atomically: the directory inode's
// stamp being covered by the cursor therefore proves every dentry
// mutation under dir has been fully applied on the standby, and the
// standby's parent index for dir is exactly the primary's. That is the
// whole proof a names-only listing needs — names, ids and types all come
// from the dentries. With plus, any entry whose own attributes cannot be
// proved fresh — or whose inode lives on a foreign shard — turns the
// whole listing into a redirect.
func (sb *Standby) readdir(p *sim.Proc, sess *Session, ctx vfs.Ctx, dir vfs.Ino, plus bool) ([]vfs.DirEntry, []vfs.Attr, error, bool) {
	si, ok := sb.route(sess, dir)
	if !ok {
		return nil, nil, nil, false
	}
	st := sb.Cluster.shards[si]
	pr := sb.primary.shards[si]
	ob := sb.obsBegin(p, si)
	r := sbCallDyn(p, sess, si, rpc.OpReaddir, 96, st.cfg.ServiceCPUPerOp, func(p *sim.Proc) sbReaddirReply {
		cursor, ok := sb.fresh(si, dir)
		if !ok {
			return sbReaddirReply{}
		}
		if stamp, ok := pr.inodes.Stamp(dir); ok && stamp > cursor {
			return sbReaddirReply{}
		}
		var out sbReaddirReply
		st.DB.View(p, func(tx *mdb.Tx) {
			if _, err := st.dirRow(tx, ctx, dir, false); err != nil {
				out = sbReaddirReply{err: err, served: true}
				return
			}
			out.entries = listDentries(tx, st.dentries, dir)
			if plus {
				out.attrs = make([]vfs.Attr, 0, len(out.entries))
				for _, e := range out.entries {
					if stamp, ok := pr.inodes.Stamp(e.Ino); sb.primary.Of(e.Ino) != si || ok && stamp > cursor {
						out = sbReaddirReply{}
						tx.Abort()
						return
					}
					row, _ := mdb.Get(tx, st.inodes, e.Ino)
					out.attrs = append(out.attrs, row.attr())
				}
			}
			out.served = true
		})
		return out
	}, func(r sbReaddirReply) int64 { return listingBytes(len(r.entries), plus) })
	sb.obsEnd(p, ob, r.served)
	if !r.served {
		sb.Fallbacks++
		return nil, nil, nil, false
	}
	sb.Reads++
	return r.entries, r.attrs, r.err, true
}
