package core

import (
	"time"

	"cofs/internal/cluster"
	"cofs/internal/mdb"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file implements hot-standby replication for the COFS metadata
// plane. The paper's prototype ran one service node and leaned on
// Mnesia's fault-tolerance mechanisms (section III-C); this extension
// exercises the multi-node half of that design: a standby service per
// metadata shard, on its own host, receives the primary shard's
// committed transactions via WAL shipping (mdb.Replica) and the whole
// standby plane can be promoted when the primaries die.
//
// The standby tracks the *current* epoch's shape, not the deploy-time
// one: it shares the primary's shard-map coordinator, a reshard grows
// it shard-for-shard with the primary (MDSCluster.growTo) and retires
// its drained shards when a shrink settles (Standby.retire), and
// Promote re-points its allocators by the current map — so a plane
// promoted at any instant of a migration serves the same namespace and
// finishes the move the dead primaries started.

// Standby is a passive metadata plane tracking a primary, shard for
// shard. It serves nothing until Promote: every read and every
// mutation goes to the primary.
type Standby struct {
	// Cluster is the standby plane (do not serve requests from it
	// before Promote).
	Cluster *MDSCluster
	// Replicas are the per-shard WAL shipping channels, in shard order.
	Replicas []*mdb.Replica
	// delay is the shipping delay; new shard replicas attach with it
	// when the primary grows mid-standby.
	delay time.Duration
}

// DeployStandby attaches a standby metadata plane to a running COFS
// deployment: one standby shard (own host, own disk) per primary shard,
// connected to the original blade-center switch, receiving the
// primary's committed transactions with the given shipping delay. The
// standby registers with the primary so reshards keep the two planes in
// lockstep.
func DeployStandby(tb *cluster.Testbed, d *Deployment, delay time.Duration) *Standby {
	if d.Service.Maps.Current().Migrating() {
		// A mid-migration plane is between shard counts: sizing the
		// standby by len(Shards()) would attach it to a shape the
		// migration is about to abandon, and its shipped tables would
		// silently disagree with the settled map. Deployment-time
		// misuse, like the other deploy panics: attach before the
		// reshard or after it settles.
		panic("core: DeployStandby during a live reshard (attach before Reshard or after it settles)")
	}
	// The standby plane reports into the deployment's scope from birth:
	// its shards and channels are wired as they are built, so the plane
	// Promote installs is already observed. It shares the object-name
	// allocator too, so clients attached after a promotion never reuse
	// a generation.
	sc := newMDSCluster(tb, "cofs-mds-standby", len(d.Service.Shards()), d.Service.obs, d.Service.names)
	// The standby routes, validates and — after Promote — recovers by
	// the primary's epoch log: sharing the coordinator keeps the
	// standby plane shaped by the current epoch, whatever the shard
	// count was when it attached.
	sc.Maps = d.Service.Maps
	sb := &Standby{Cluster: sc, delay: delay}
	for i := range sc.shards {
		sb.Replicas = append(sb.Replicas,
			mdb.Replicate(tb.Env, d.Service.shards[i].DB, sc.shards[i].DB, delay))
	}
	d.Service.standbys = append(d.Service.standbys, sb)
	return sb
}

// grow extends the standby plane to the primary's shard count (called
// by the primary's growTo at the start of a reshard): new standby
// shards on new standby hosts, each shipping from its new primary
// shard with the deploy-time delay.
func (sb *Standby) grow(primary *MDSCluster) {
	sc := sb.Cluster
	sc.growTo(len(primary.shards))
	for i := len(sb.Replicas); i < len(primary.shards); i++ {
		sb.Replicas = append(sb.Replicas,
			mdb.Replicate(sc.net.Env(), primary.shards[i].DB, sc.shards[i].DB, sb.delay))
	}
}

// retire drops the standby's drained-shard replicas after a shrink
// settles (called by the primary's retireDrained): the shipping tail —
// the source's final delete commits — is drained synchronously first,
// so the standby's drained shards end as empty as the primary's, then
// the standby shards themselves retire (hosts released).
func (sb *Standby) retire(p *sim.Proc, n int) {
	for i := n; i < len(sb.Replicas); i++ {
		sb.Replicas[i].Flush(p)
		sb.Replicas[i].Stop()
	}
	sb.Replicas = sb.Replicas[:min(n, len(sb.Replicas))]
	sb.Cluster.retireDrained(p)
}

// Lag sums the unshipped WAL records across all shard replicas. After
// a settled shrink only the serving shards' replicas remain (retire
// dropped the drained ones), so lag tracks the current epoch's shape.
func (sb *Standby) Lag() int {
	lag := 0
	for _, r := range sb.Replicas {
		lag += r.Lag()
	}
	return lag
}

// Promote turns the standby into the serving metadata plane for the
// deployment: shipping stops on every shard, each standby shard adopts
// the id counter from its replicated tables, and every client is
// repointed. Open file handles keep working — data paths go straight to
// the underlying file system and the standby holds the same mappings.
//
// Allocators are shaped by the current epoch before adoption: after (or
// during) a reshard the standby shards' deploy-time strides are stale,
// and a promotion mid-migration must allocate above the newborn
// boundary like the dead primaries did. On a never-resharded plane the
// re-pointing reproduces the deploy-time strides exactly. When the map
// is mid-migration, the promoted plane finishes the move the primaries
// started: a recovery process reconciles half-applied batches against
// the shared epoch log and runs the remaining plan (recoverReshard),
// draining on the caller's next testbed run.
//
// Returns the number of WAL records that had not been shipped when the
// primaries died (the lost window, mirroring the flush window of a
// single-node recovery).
func (sb *Standby) Promote(d *Deployment) int {
	lost := sb.Lag()
	for _, r := range sb.Replicas {
		r.Stop()
	}
	sc := sb.Cluster
	cur := sc.Maps.Current()
	n := cur.Target()
	for i, s := range sc.shards {
		if i < n {
			s.setAllocStride(i, n, vfs.Ino(cur.SplitID))
		} else {
			s.setAllocStride(-1, 0, 0)
		}
	}
	sc.AdoptIDCounter()
	for _, fs := range d.FSs {
		fs.SetService(sc)
	}
	// The promoted plane serves from here on: Deployment.Counters sums
	// it beside the demoted one, which keeps every count it made.
	sc.obs.planes = append(sc.obs.planes, sc)
	d.Service = sc
	if cur.Migrating() {
		sc.net.Env().Spawn("promote-reshard-recover", func(p *sim.Proc) {
			sc.recoverReshard(p)
		})
	}
	return lost
}

// AdoptIDCounter recomputes the shard's next file id from the largest
// id of its stride present in its inode table. Must be called when a
// shard starts serving from replicated or recovered tables it did not
// populate itself. A shard whose allocator a live shrink drained
// allocates nothing and adopts nothing.
//
// Only ids of the shard's own stride class drive the counter:
// mid-migration a shard legitimately holds not-yet-moved rows of other
// target-stride classes, and letting them push the counter would strand
// it outside the stride. The counter never moves below its current
// floor — setAllocStride placed it above the migration's newborn
// boundary, and ids of this class at or below the boundary may still
// live on other shards awaiting their move.
func (s *Service) AdoptIDCounter() {
	if !s.canAlloc() {
		return
	}
	next := s.nextID
	if next < s.allocBase {
		next = s.allocBase
	}
	s.inodes.Each(func(id vfs.Ino, _ inodeRow) {
		if id < s.allocBase || (id-s.allocBase)%s.allocStride != 0 {
			return
		}
		if id >= next {
			next = id + s.allocStride
		}
	})
	s.nextID = next
}

// SetService repoints this client at a different metadata plane
// (failover): a fresh session (new per-shard RPC channels) is dialed
// and the client cache is purged — the new plane may have lost a
// shipping window's worth of transactions, cached attributes must not
// outlive the state that backed them, and any leases were granted by
// the dead plane.
func (f *FS) SetService(svc *MDSCluster) {
	f.svc = svc
	f.sess = svc.Connect(f.host, f.node, f.attrs)
	f.attrs.purge()
}
