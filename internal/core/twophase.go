package core

import (
	"time"

	"cofs/internal/lock"
	"cofs/internal/mdb"
	"cofs/internal/rpc"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file implements the cross-shard halves of the metadata
// operations. The routing invariant (see mds.go) keeps every operation
// coordinated by one shard — the one owning the parent directory's
// dentries and inode row — and the rows that can live elsewhere are
// exactly a child's inode (directories placed by DirTarget, files
// renamed in from another directory), with a regular file's underlying
// path inside it.
//
// Mutations that span shards run an explicit two-phase protocol over
// simulated shard-to-shard RPCs (peerCall): a prepare/validate exchange
// first, so error returns leave no partial state, then per-shard commit
// transactions, ordered so a dentry never points at a not-yet-created
// inode and a reclaimed inode loses its dentry first. Validation and
// commit are separate transactions, so the protocol is wrapped in the
// lock-ordered transaction layer (txnlock.go, docs/transactions.md):
// every mutation locks the inode and dentry rows it will read-depend on
// or write — in one global canonical order, extending the footprint
// under re-validation when a row is only discovered by reading — and
// holds the locks across the whole validate→commit gap. Conflicting
// mutations serialize instead of interleaving between the phases, which
// is what preserves the plane invariants (MDSCluster.CheckInvariants)
// that the unlocked protocol could break under concurrent renames and
// removes; lease recalls still fire at each commit instant, inside the
// locked span. Uncontended acquisitions charge nothing, so an
// uncontended mutation costs exactly its protocol messages.

// peerGetattr reads an inode's attributes from its owning shard (one
// dirty-read hop). The attribute lease, if any, is granted by the
// owning shard — the one that will see (and recall on) mutations of the
// row. The owner is re-resolved and the hop retried when the row's
// group migrates mid-read (server-side redirect: no client epoch is
// involved, the coordinator simply chases the current map).
func (s *Service) peerGetattr(p *sim.Proc, sess *Session, id vfs.Ino) attrReply {
	for {
		ts := s.peer(id)
		r := peerCall(p, s, ts, 96, 192, ts.cfg.ServiceCPUPerOp*3/4, func(p *sim.Proc) attrReply {
			row, ok := mdb.DirtyGet(p, ts.inodes, id)
			if !ok {
				return attrReply{err: ts.missErr(id, vfs.ErrNotExist)}
			}
			ts.grantAttr(p, sess, id, "")
			return attrReply{attr: row.attr()}
		})
		if r.err != ErrWrongEpoch {
			return r
		}
	}
}

// createRemote creates an object whose inode row another shard ts
// allocates and owns: a directory the shard map's DirTarget places
// elsewhere (the common case), or — during a live shrink — a file or
// symlink whose coordinator shard's allocator has been drained. Prepare
// (allocate + insert the row there, with a regular file's underlying
// path in it), then commit the dentry and parent update locally,
// aborting the prepared row if the local validation fails.
func (s *Service) createRemote(p *sim.Proc, sess *Session, ctx vfs.Ctx, parent vfs.Ino, name string, t vfs.FileType, mode uint32, upath, target string, ts *Service) (vfs.Attr, error) {
	r := call(p, s, sess, rpc.OpCreate, 256, 192, func(p *sim.Proc) attrReply {
		// The new inode row is freshly allocated — no other mutation can
		// reference it before the dentry commit below — so the footprint
		// is just the dentry being created (Exclusive) and the parent
		// row (Shared: its nlink/mtime bump is atomic in the phase-2
		// transaction; Shared keeps concurrent mkdirs of different
		// names overlapping while still excluding an rmdir of parent).
		s.cluster.obs.tr.Begin(p, "", "2pc.validate", s.shardID)
		defer s.cluster.obs.tr.End(p)
		txn := s.lockRows(p, lock.X(s.dentKey(parent, name)), lock.S(s.inoKey(parent)))
		defer txn.release(p)
		var out attrReply
		if out.err = s.claim(parent); out.err != nil {
			return out
		}
		// Phase 0: local validation (read-only), so the common error
		// returns — EEXIST from mkdir-p retries above all — never pay
		// the remote prepare/abort round trips or burn an id.
		valid := false
		s.DB.Transaction(p, func(tx *mdb.Tx) {
			if _, err := s.dirRow(tx, ctx, parent, true); err != nil {
				out.err = err
				return
			}
			if _, exists := mdb.Get(tx, s.dentries, dentryKey{Parent: parent, Name: name}); exists {
				out.err = vfs.ErrExist
				return
			}
			valid = true
		})
		if !valid {
			return out
		}
		// Phase 1: the owning shard prepares the inode row (with, for a
		// regular file, the client's underlying path in it).
		s.cluster.obs.tr.Next(p, "2pc.prepare")
		row := peerCall(p, s, ts, 160, 160, ts.cfg.ServiceCPUPerOp, func(p *sim.Proc) inodeRow {
			var row inodeRow
			ts.DB.Transaction(p, func(tx *mdb.Tx) {
				id := ts.allocID()
				row = inodeRow{
					ID: id, Type: t, Mode: mode, UID: ctx.UID, GID: ctx.GID,
					Nlink: 1, Mtime: p.Now(), Ctime: p.Now(), Target: target, Path: upath,
				}
				switch t {
				case vfs.TypeDir:
					row.Nlink = 2
				case vfs.TypeSymlink:
					row.Size = int64(len(target))
				}
				mdb.Put(tx, ts.inodes, id, row)
			})
			return row
		})
		s.cluster.obs.tr.Next(p, "2pc.commit")
		// Phase 2: commit the dentry and parent bookkeeping. The
		// re-validation is defensive: the row locks held since phase 0
		// keep every conflicting mutation out, and a failure would
		// abort the prepared row.
		s.DB.Transaction(p, func(tx *mdb.Tx) {
			din, err := s.dirRow(tx, ctx, parent, true)
			if err != nil {
				out.err = err
				return
			}
			key := dentryKey{Parent: parent, Name: name}
			if _, exists := mdb.Get(tx, s.dentries, key); exists {
				out.err = vfs.ErrExist
				return
			}
			if t == vfs.TypeDir {
				din.Nlink++
			}
			din.Mtime = p.Now()
			mdb.Put(tx, s.dentries, key, dentryRow{Parent: parent, Name: name, Child: row.ID, Type: t})
			mdb.Put(tx, s.inodes, parent, din)
			out.attr = row.attr()
		})
		if out.err != nil {
			// Abort: reclaim the prepared inode (the id itself is burnt).
			s.peerDeleteInode(p, nil, ts, row.ID)
			return out
		}
		s.revokeLeases(p, sess, dentLease(parent, name), attrLease(parent))
		s.grantDentry(p, sess, parent, name, row.ID)
		if t == vfs.TypeRegular {
			// Mirror the local create's grant; the lease lives at the
			// row's owner, which is the shard that will recall it.
			ts.grantAttr(p, sess, row.ID, upath)
		}
		return out
	})
	return r.attr, r.err
}

// removeSharded is Remove for a sharded plane: validation against the
// (always local) dentry first, then the inode half at its owning shard.
// A file unlink validates by the dentry alone and checks the parent's
// permission in its commit (unlinkDentry); every error path and every
// rmdir read the parent first, which keeps the single-shard precedence.
func (s *Service) removeSharded(p *sim.Proc, sess *Session, ctx vfs.Ctx, parent vfs.Ino, name string, rmdir bool, want vfs.Ino) (string, vfs.Ino, error) {
	r := call(p, s, sess, rpc.OpRemove, 160, 128, func(p *sim.Proc) removeReply {
		var out removeReply
		key := dentryKey{Parent: parent, Name: name}
		s.cluster.obs.tr.Begin(p, "", "2pc.validate", s.shardID)
		defer s.cluster.obs.tr.End(p)
		txn := s.lockRows(p, lock.X(s.dentKey(parent, name)), lock.S(s.inoKey(parent)))
		defer txn.release(p)
		var de dentryRow
		for {
			out = removeReply{}
			// Claimed inside the loop: extend's release-and-reacquire
			// window below can race a migration of the parent's group.
			if out.err = s.claim(parent); out.err != nil {
				return out
			}
			valid := false
			s.DB.Transaction(p, func(tx *mdb.Tx) {
				var ok bool
				if !rmdir {
					if de, ok = mdb.Get(tx, s.dentries, key); ok && de.Type != vfs.TypeDir && (want == 0 || de.Child == want) {
						out.id, valid = de.Child, true
						return
					}
				}
				if _, err := s.dirRow(tx, ctx, parent, true); err != nil {
					out.err = err
					return
				}
				if rmdir {
					de, ok = mdb.Get(tx, s.dentries, key)
				}
				switch {
				case !ok || want != 0 && de.Child != want:
					out.err = vfs.ErrNotExist
				case !rmdir:
					out.err = vfs.ErrIsDir
				case de.Type != vfs.TypeDir:
					out.err = vfs.ErrNotDir
				default:
					out.id, valid = de.Child, true
				}
			})
			if !valid {
				return out
			}
			// The child's inode row joins the footprint, Exclusive:
			// rmdir retires it (and its lock is what freezes the
			// emptiness check below against Shared-holding creates),
			// unlink rewrites its nlink. If extending waited, the
			// dentry may have been re-pointed meanwhile: re-validate.
			if !txn.extend(p, lock.X(s.inoKey(de.Child))) {
				break
			}
		}
		id := de.Child

		if rmdir {
			// A directory's own dentries and inode row are co-located on
			// its shard. Prepare: check emptiness there (read-only).
			// Commit: retire the dentry here first, then the inode.
			ts := s.peer(id)
			s.cluster.obs.tr.Next(p, "2pc.prepare")
			if !s.peerDirEmpty(p, ts, id) {
				out.err = vfs.ErrNotEmpty
				return out
			}
			s.cluster.obs.tr.Next(p, "2pc.commit")
			s.DB.Transaction(p, func(tx *mdb.Tx) {
				mdb.Delete(tx, s.dentries, key)
				if din, ok := mdb.Get(tx, s.inodes, parent); ok {
					din.Nlink--
					mdb.Put(tx, s.inodes, parent, din)
				}
			})
			s.revokeLeases(p, sess, dentLease(parent, name), attrLease(parent))
			s.peerDeleteInode(p, sess, ts, id)
			out.isDir = true
			return out
		}

		s.cluster.obs.tr.Next(p, "2pc.commit")
		if s.owns(id) {
			// Co-located file: finish in one local transaction.
			s.DB.Transaction(p, func(tx *mdb.Tx) {
				if out.err = s.unlinkDentry(tx, ctx, key, p.Now()); out.err != nil {
					return
				}
				row, _ := mdb.Get(tx, s.inodes, id)
				row.Nlink--
				if row.Nlink <= 0 {
					out.upath, out.removed = row.Path, true
					mdb.Delete(tx, s.inodes, id)
				} else {
					mdb.Put(tx, s.inodes, id, row)
				}
			})
			if out.err == nil {
				s.revokeLeases(p, sess, dentLease(parent, name), attrLease(id), attrLease(parent))
			}
			return out
		}

		// The file's inode lives elsewhere (renamed in from another
		// directory): drop the dentry here, then its link at the owner.
		s.DB.Transaction(p, func(tx *mdb.Tx) {
			out.err = s.unlinkDentry(tx, ctx, key, p.Now())
		})
		if out.err != nil {
			return out
		}
		s.revokeLeases(p, sess, dentLease(parent, name), attrLease(parent))
		rep := s.peerUnlink(p, sess, id)
		out.upath, out.removed = rep.upath, rep.removed
		return out
	})
	return r.upath, r.id, r.err
}

// unlinkDentry is a file unlink's commit at the parent's shard, on one
// read of the parent's row: the permission check, the dentry's removal
// and the parent's mtime. Inside a transaction; an error writes nothing.
func (s *Service) unlinkDentry(tx *mdb.Tx, ctx vfs.Ctx, key dentryKey, now time.Duration) error {
	din, err := s.dirRow(tx, ctx, key.Parent, true)
	if err != nil {
		return err
	}
	din.Mtime = now
	mdb.Delete(tx, s.dentries, key)
	mdb.Put(tx, s.inodes, key.Parent, din)
	return nil
}

// peerDirEmpty checks, at the directory's owning shard, that it has no
// entries (read-only prepare step).
func (s *Service) peerDirEmpty(p *sim.Proc, ts *Service, id vfs.Ino) bool {
	return peerCall(p, s, ts, 128, 64, ts.cfg.ServiceCPUPerOp, func(p *sim.Proc) bool {
		e := false
		ts.DB.Transaction(p, func(tx *mdb.Tx) {
			e = mdb.IndexRead(tx, ts.dentries, "parent", uint64(id)).Len() == 0
		})
		return e
	})
}

// peerDeleteInode reclaims an inode row at its owning shard (commit
// step; the row's dentry is already gone): a retired directory, or a
// prepared row createRemote aborts. The owner recalls any attribute
// leases on the retired row; sess may be nil when reclaiming a prepared
// row that no client ever saw.
func (s *Service) peerDeleteInode(p *sim.Proc, sess *Session, ts *Service, id vfs.Ino) {
	peerCall(p, s, ts, 96, 64, ts.cfg.ServiceCPUPerOp, func(p *sim.Proc) struct{} {
		ts.DB.Transaction(p, func(tx *mdb.Tx) {
			mdb.Delete(tx, ts.inodes, id)
		})
		ts.revokeLeases(p, sess, attrLease(id))
		return struct{}{}
	})
}

// peerUnlink drops one link of a non-directory inode at its owning
// shard, reclaiming the row — and returning its underlying path — when
// the last link dies.
func (s *Service) peerUnlink(p *sim.Proc, sess *Session, id vfs.Ino) removeReply {
	ts := s.peer(id)
	return peerCall(p, s, ts, 128, 160, ts.cfg.ServiceCPUPerOp, func(p *sim.Proc) removeReply {
		var rr removeReply
		ts.DB.Transaction(p, func(tx *mdb.Tx) {
			row, ok := mdb.Get(tx, ts.inodes, id)
			if !ok {
				return
			}
			row.Nlink--
			if row.Nlink <= 0 {
				rr.upath, rr.removed = row.Path, true
				mdb.Delete(tx, ts.inodes, id)
			} else {
				mdb.Put(tx, ts.inodes, id, row)
			}
		})
		ts.revokeLeases(p, sess, attrLease(id))
		return rr
	})
}

// renameSharded is Rename for a sharded plane. Up to four shards take
// part: the coordinator (source directory), the destination directory's
// shard, the replaced target's shard and — implicitly, unchanged — the
// moving inode's. All validation happens before any mutation, in the
// single-shard path's error-precedence order.
// Onto an absent name on another shard, the destination is the last
// agent of the commit: once the source and the name have validated, it
// installs in its validation message (docs/transactions.md).
func (s *Service) renameSharded(p *sim.Proc, sess *Session, ctx vfs.Ctx, srcDir vfs.Ino, srcName string, dstDir vfs.Ino, dstName string) (string, vfs.Ino, error) {
	r := call(p, s, sess, rpc.OpRename, 224, 128, func(p *sim.Proc) removeReply {
		var out removeReply
		srcKey := dentryKey{Parent: srcDir, Name: srcName}
		dstKey := dentryKey{Parent: dstDir, Name: dstName}
		// Static footprint: both dentries being swapped (Exclusive) and
		// both directory rows whose nlink/mtime the swap rewrites
		// (Shared: those bumps are atomic per commit transaction, and
		// Shared already excludes an rmdir retiring either directory).
		// The moving object's own row is untouched (its dentry travels,
		// its inode stays), so it needs no lock; a replaced target's
		// row is rewritten and joins the footprint once discovered
		// below.
		s.cluster.obs.tr.Begin(p, "", "2pc.validate", s.shardID)
		defer s.cluster.obs.tr.End(p)
		txn := s.lockRows(p,
			lock.X(s.dentKey(srcDir, srcName)), lock.X(s.dentKey(dstDir, dstName)),
			lock.S(s.inoKey(srcDir)), lock.S(s.inoKey(dstDir)))
		defer txn.release(p)

		type dstView struct {
			err       error
			de        dentryRow
			ok        bool
			installed bool
		}
		var srcDe dentryRow
		var dv dstView
		var D *Service
		for {
			out = removeReply{}
			// Claimed — and the destination's owner resolved — inside
			// the loop: extend's release-and-reacquire window below can
			// race a migration of either directory's group. Once the
			// Shared locks are (re)held neither group can move.
			if out.err = s.claim(srcDir); out.err != nil {
				return out
			}
			D = s.peer(dstDir)
			// ---- read/validate phase (no mutations), under the locks ----
			var sdErr error
			srcOK := false
			s.DB.Transaction(p, func(tx *mdb.Tx) {
				if _, sdErr = s.dirRow(tx, ctx, srcDir, true); sdErr != nil {
					return
				}
				srcDe, srcOK = mdb.Get(tx, s.dentries, srcKey)
			})
			if sdErr != nil {
				out.err = sdErr
				return out
			}
			install := D != s && srcOK && dstName != "" && len(dstName) <= vfs.MaxNameLen
			req := int64(160)
			if install {
				req = 192
			}
			dv = peerCall(p, s, D, req, 128, D.cfg.ServiceCPUPerOp, func(p *sim.Proc) dstView {
				var v dstView
				D.DB.Transaction(p, func(tx *mdb.Tx) {
					var dd inodeRow
					if dd, v.err = D.dirRow(tx, ctx, dstDir, true); v.err != nil {
						return
					}
					v.de, v.ok = mdb.Get(tx, D.dentries, dstKey)
					if install && !v.ok {
						D.installDentry(tx, dstKey, srcDe, dd, false, p.Now())
						v.installed = true
					}
				})
				if v.installed {
					D.revokeLeases(p, sess, dentLease(dstDir, dstName), attrLease(dstDir))
					D.grantDentry(p, sess, dstDir, dstName, srcDe.Child)
				}
				return v
			})
			if dv.err != nil {
				out.err = dv.err
				return out
			}
			if !srcOK {
				out.err = vfs.ErrNotExist
				return out
			}
			if dstName == "" || len(dstName) > vfs.MaxNameLen {
				out.err = vfs.ErrInvalid
				return out
			}
			// A replaced target's inode row joins the footprint,
			// Exclusive (its nlink/row is rewritten at the end, and for
			// a replaced directory the lock freezes the emptiness
			// check). If extending waited, either dentry may have been
			// re-pointed: re-validate.
			if !dv.ok || dv.de.Child == srcDe.Child ||
				!txn.extend(p, lock.X(s.inoKey(dv.de.Child))) {
				break
			}
		}
		id := srcDe.Child
		movingDir := srcDe.Type == vfs.TypeDir
		var existing vfs.Ino
		replacedDir := false
		if dv.ok {
			existing = dv.de.Child
			if existing == id {
				// POSIX no-op: same object under both names.
				return out
			}
			out.id = existing
			if dv.de.Type == vfs.TypeDir {
				if !movingDir {
					out.err = vfs.ErrIsDir
					return out
				}
				replacedDir = true
				// Read-only prepare at the replaced directory's shard:
				// its emptiness check and inode row live together (and
				// the row's lock, held above, excludes new entries —
				// every create routes through the directory's row). The
				// row itself is reclaimed after the dentry swap below.
				if !s.peerDirEmpty(p, s.peer(existing), existing) {
					out.err = vfs.ErrNotEmpty
					return out
				}
			} else if movingDir {
				out.err = vfs.ErrNotDir
				return out
			}
		}

		// ---- apply phase: dentry swap and parent bookkeeping ----
		s.cluster.obs.tr.Next(p, "2pc.commit")
		if D == s {
			s.DB.Transaction(p, func(tx *mdb.Tx) {
				mdb.Delete(tx, s.dentries, srcKey)
				mdb.Put(tx, s.dentries, dstKey, dentryRow{Parent: dstDir, Name: dstName, Child: id, Type: srcDe.Type})
				if srcDir == dstDir {
					if row, ok := mdb.Get(tx, s.inodes, srcDir); ok {
						if replacedDir {
							row.Nlink--
						}
						row.Mtime = p.Now()
						mdb.Put(tx, s.inodes, srcDir, row)
					}
					return
				}
				if sd, ok := mdb.Get(tx, s.inodes, srcDir); ok {
					if movingDir {
						sd.Nlink--
					}
					sd.Mtime = p.Now()
					mdb.Put(tx, s.inodes, srcDir, sd)
				}
				if dd, ok := mdb.Get(tx, s.inodes, dstDir); ok {
					if movingDir {
						dd.Nlink++
					}
					if replacedDir {
						dd.Nlink--
					}
					dd.Mtime = p.Now()
					mdb.Put(tx, s.inodes, dstDir, dd)
				}
			})
			s.revokeLeases(p, sess, dentLease(srcDir, srcName), dentLease(dstDir, dstName),
				attrLease(srcDir), attrLease(dstDir))
			s.grantDentry(p, sess, dstDir, dstName, id)
		} else {
			// Install the destination dentry first (unless validation
			// already did), then retire the source: the moving object
			// never disappears from both directories.
			if !dv.installed {
				peerCall(p, s, D, 192, 64, D.cfg.ServiceCPUPerOp, func(p *sim.Proc) struct{} {
					D.DB.Transaction(p, func(tx *mdb.Tx) {
						dd, _ := mdb.Get(tx, D.inodes, dstDir)
						D.installDentry(tx, dstKey, srcDe, dd, replacedDir, p.Now())
					})
					D.revokeLeases(p, sess, dentLease(dstDir, dstName), attrLease(dstDir))
					D.grantDentry(p, sess, dstDir, dstName, id)
					return struct{}{}
				})
			}
			s.DB.Transaction(p, func(tx *mdb.Tx) {
				mdb.Delete(tx, s.dentries, srcKey)
				if sd, ok := mdb.Get(tx, s.inodes, srcDir); ok {
					if movingDir {
						sd.Nlink--
					}
					sd.Mtime = p.Now()
					mdb.Put(tx, s.inodes, srcDir, sd)
				}
			})
			s.revokeLeases(p, sess, dentLease(srcDir, srcName), attrLease(srcDir))
		}
		// The replaced object's inode is reclaimed last, once no dentry
		// references it: either the row alone (a replaced empty
		// directory) or one link of a replaced file/symlink.
		if existing != 0 {
			if replacedDir {
				s.peerDeleteInode(p, sess, s.peer(existing), existing)
			} else {
				rep := s.peerUnlink(p, sess, existing)
				out.upath, out.removed = rep.upath, rep.removed
			}
		}
		return out
	})
	return r.upath, r.id, r.err
}

// installDentry is a rename's destination half, run at the destination
// directory's shard inside a transaction that has read the directory's
// row dd: the entry for the moving object, and dd's new mtime and
// nlink, which gains a moving directory's ".." and loses a replaced
// directory's.
func (s *Service) installDentry(tx *mdb.Tx, key dentryKey, moving dentryRow, dd inodeRow, replacedDir bool, now time.Duration) {
	mdb.Put(tx, s.dentries, key, dentryRow{Parent: key.Parent, Name: key.Name, Child: moving.Child, Type: moving.Type})
	if moving.Type == vfs.TypeDir {
		dd.Nlink++
	}
	if replacedDir {
		dd.Nlink--
	}
	dd.Mtime = now
	mdb.Put(tx, s.inodes, key.Parent, dd)
}

// linkRemote adds a hard link at (parent, name) to an inode another
// shard owns: validate locally and at the owner, then commit the nlink
// bump there and the dentry here.
func (s *Service) linkRemote(p *sim.Proc, sess *Session, ctx vfs.Ctx, id vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	r := call(p, s, sess, rpc.OpLink, 160, 192, func(p *sim.Proc) attrReply {
		var out attrReply
		// The whole footprint is known from the arguments: the dentry
		// being created (Exclusive), the parent row it stamps and the
		// target row whose nlink the owner bumps between validate and
		// commit (both Shared — the bumps are atomic per transaction,
		// and Shared excludes the Exclusive reclaim paths that could
		// invalidate the validation between the phases).
		s.cluster.obs.tr.Begin(p, "", "2pc.validate", s.shardID)
		defer s.cluster.obs.tr.End(p)
		txn := s.lockRows(p, lock.X(s.dentKey(parent, name)), lock.S(s.inoKey(parent)), lock.S(s.inoKey(id)))
		defer txn.release(p)
		if out.err = s.claim(parent); out.err != nil {
			return out
		}
		key := dentryKey{Parent: parent, Name: name}
		exists := false
		valid := false
		s.DB.Transaction(p, func(tx *mdb.Tx) {
			if _, err := s.dirRow(tx, ctx, parent, true); err != nil {
				out.err = err
				return
			}
			_, exists = mdb.Get(tx, s.dentries, key)
			valid = true
		})
		if !valid {
			return out
		}
		// Phase 1: validate the target at its owner (error precedence:
		// missing/IsDir before ErrExist, as on the single-shard path).
		ts := s.peer(id)
		tv := peerCall(p, s, ts, 96, 192, ts.cfg.ServiceCPUPerOp*3/4, func(p *sim.Proc) attrReply {
			row, ok := mdb.DirtyGet(p, ts.inodes, id)
			if !ok {
				return attrReply{err: vfs.ErrNotExist}
			}
			if row.Type == vfs.TypeDir {
				return attrReply{err: vfs.ErrIsDir}
			}
			return attrReply{attr: row.attr()}
		})
		if tv.err != nil {
			out.err = tv.err
			return out
		}
		if exists {
			out.err = vfs.ErrExist
			return out
		}
		// Phase 2: commit — bump nlink at the owner, insert the dentry.
		s.cluster.obs.tr.Next(p, "2pc.commit")
		out = peerCall(p, s, ts, 128, 192, ts.cfg.ServiceCPUPerOp, func(p *sim.Proc) attrReply {
			var rr attrReply
			ts.DB.Transaction(p, func(tx *mdb.Tx) {
				row, ok := mdb.Get(tx, ts.inodes, id)
				if !ok {
					rr.err = vfs.ErrNotExist
					return
				}
				row.Nlink++
				mdb.Put(tx, ts.inodes, id, row)
				rr.attr = row.attr()
			})
			if rr.err == nil {
				ts.revokeLeases(p, sess, attrLease(id))
				ts.grantAttr(p, sess, id, "")
			}
			return rr
		})
		if out.err != nil {
			return out
		}
		s.DB.Transaction(p, func(tx *mdb.Tx) {
			mdb.Put(tx, s.dentries, key, dentryRow{Parent: parent, Name: name, Child: id, Type: out.attr.Type})
			if din, ok := mdb.Get(tx, s.inodes, parent); ok {
				din.Mtime = p.Now()
				mdb.Put(tx, s.inodes, parent, din)
			}
		})
		s.revokeLeases(p, sess, dentLease(parent, name), attrLease(parent))
		s.grantDentry(p, sess, parent, name, id)
		return out
	})
	return r.attr, r.err
}
