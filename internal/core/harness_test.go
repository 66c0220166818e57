package core

import (
	"fmt"
	"path"
	"strings"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// The tests of this package share one harness, exported like
// export_test.go so the external tests use it too: Rig deploys, Drained
// runs one drained phase, Race runs file operations on the replayer's
// scheduler, trace.Race, and Expect and Play check what they return,
// Sweep steps a race across its window, Attrs, Ino and View read what a
// node sees, and CheckPlane holds the plane to itself.

// Rig deploys COFS on a testbed of nodes nodes seeded with seed, under
// the default parameters changed by each tweak in turn. The deployment
// formats its object tree as state, so the rig starts at virtual time
// 0 with nothing to drain.
func Rig(t testing.TB, seed int64, nodes int, tweaks ...func(*params.Config)) (*cluster.Testbed, *Deployment) {
	t.Helper()
	cfg := params.Default()
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	tb := cluster.New(seed, nodes, cfg)
	return tb, Deploy(tb, nil)
}

// Shards is the tweak that deploys n metadata shards.
func Shards(n int) func(*params.Config) {
	return func(c *params.Config) { c.COFS.MetadataShards = n }
}

// Leases turns the lease-coherent client cache on.
func Leases(c *params.Config) { c.COFS.AttrLease = 30 * time.Second }

// NoKernelEntries puts the kernel's dentry cache above COFS on a
// 1-nanosecond entry timeout, so every path walk reaches the COFS layer
// and the lease-protected cache, not the kernel's, is what a test sees.
// The kernel cache is not invalidated by lease recalls, so without this
// a name renamed or removed on another node resolves until it expires.
func NoKernelEntries(c *params.Config) { c.FUSE.EntryTimeout = time.Nanosecond }

// AwaitKernelEntries sleeps p until every entry the kernel's dentry
// cache holds now has expired, so what a stat sees next comes from the
// leases or the service.
func AwaitKernelEntries(p *sim.Proc, tb *cluster.Testbed) {
	p.Sleep(tb.Cfg.FUSE.EntryTimeout + time.Millisecond)
}

// Drained runs fn as one simulation phase and drains it: everything fn
// does happens-before the next phase.
func Drained(tb *cluster.Testbed, name string, fn func(p *sim.Proc)) {
	tb.Env.Spawn(name, fn)
	tb.Run()
}

// Race runs ops as racing streams on the replayer's scheduler,
// trace.Race, drains the run and returns each op's error.
func Race(tb *cluster.Testbed, d *Deployment, ops ...trace.Op) []error {
	return trace.Race(trace.Target{Env: tb.Env, Mounts: d.Mounts}, ops)
}

// Expect runs ops as Race does and fails t unless every one returns
// want.
func Expect(t testing.TB, tb *cluster.Testbed, d *Deployment, want error, ops ...trace.Op) {
	t.Helper()
	for i, err := range Race(tb, d, ops...) {
		if err != want {
			op := ops[i]
			t.Fatalf("%s %s (node %d): %v, want %v", op.Kind, op.Path, op.Node, err, want)
		}
	}
}

// Play runs ops as Race does and fails t unless every one succeeds:
// the set-up phases and "must resolve" checks.
func Play(t testing.TB, tb *cluster.Testbed, d *Deployment, ops ...trace.Op) {
	t.Helper()
	Expect(t, tb, d, nil, ops...)
}

// At is op issued d after a Race starts.
func At(d time.Duration, op trace.Op) trace.Op {
	op.At = d
	return op
}

// By is op issued by process pid of its node.
func By(pid int, op trace.Op) trace.Op {
	op.PID = pid
	return op
}

// Sweep runs race at each start offset from 0 to 3 ms in steps of step,
// in order, and stops at the first offset that fails t, naming it. A
// sweep's seed and step pick the interleavings it covers, so both stay.
func Sweep(t testing.TB, step time.Duration, race func(delta time.Duration)) {
	for delta := time.Duration(0); delta <= 3*time.Millisecond && !t.Failed(); delta += step {
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("at offset %v", delta)
				}
			}()
			race(delta)
		}()
	}
}

// Attrs stats each path from process 1 on node, in order, as one drained
// phase, and fails t unless every one resolves.
func Attrs(t testing.TB, tb *cluster.Testbed, d *Deployment, node int, paths ...string) []vfs.Attr {
	t.Helper()
	attrs := make([]vfs.Attr, len(paths))
	var err error
	Drained(tb, "stat", func(p *sim.Proc) {
		for i, path := range paths {
			if attrs[i], err = d.Mounts[node].Stat(p, cluster.Ctx(node, 1), path); err != nil {
				err = fmt.Errorf("stat %s (node %d): %w", path, node, err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return attrs
}

// Ino resolves path from node 0 in a phase of its own and fails t
// unless it resolves.
func Ino(t testing.TB, tb *cluster.Testbed, d *Deployment, path string) vfs.Ino {
	t.Helper()
	return Attrs(t, tb, d, 0, path)[0].Ino
}

// View lists dir from process 1 on node and stats every entry, as one
// drained phase, and renders what it saw: per entry its name, inode,
// type, mode, size and link count. It fails t on any error, or if a
// stat and the listing disagree on an entry's inode.
func View(t testing.TB, tb *cluster.Testbed, d *Deployment, node int, dir string) string {
	t.Helper()
	var out strings.Builder
	var err error
	Drained(tb, "view", func(p *sim.Proc) {
		m, ctx := d.Mounts[node], cluster.Ctx(node, 1)
		var ents []vfs.DirEntry
		if ents, err = m.Readdir(p, ctx, dir); err != nil {
			return
		}
		for _, e := range ents {
			var a vfs.Attr
			if a, err = m.Stat(p, ctx, path.Join(dir, e.Name)); err == nil && a.Ino != e.Ino {
				err = fmt.Errorf("%s is listed as inode %d and stats as %d", e.Name, e.Ino, a.Ino)
			}
			if err != nil {
				return
			}
			fmt.Fprintf(&out, "%s %d %v %o %d %d\n", e.Name, a.Ino, e.Type, a.Mode, a.Size, a.Nlink)
		}
	})
	if err != nil {
		t.Fatalf("view of %s from node %d: %v", dir, node, err)
	}
	return out.String()
}

// Mkdir, Create, Write, Stat and Chmod are set-up operations of
// process 1 on node; a directory, file or chmod gets mode, a written
// file 0644.
func Mkdir(node int, path string, mode uint32) trace.Op {
	return trace.Op{Node: node, PID: 1, Kind: trace.Mkdir, Path: path, Mode: mode}
}

func Create(node int, path string, mode uint32) trace.Op {
	return trace.Op{Node: node, PID: 1, Kind: trace.Create, Path: path, Mode: mode}
}

func Write(node int, path string, bytes int64) trace.Op {
	return trace.Op{Node: node, PID: 1, Kind: trace.WriteFile, Path: path, Bytes: bytes, Mode: 0644}
}

func Stat(node int, path string) trace.Op {
	return trace.Op{Node: node, PID: 1, Kind: trace.Stat, Path: path}
}

func Chmod(node int, path string, mode uint32) trace.Op {
	return trace.Op{Node: node, PID: 1, Kind: trace.Chmod, Path: path, Mode: mode}
}

// Dir is node's set-up of directory dir with mode and n files in it,
// named fmt.Sprintf(name, i) and written with bytes bytes each (created
// empty when bytes is 0).
func Dir(node int, dir string, mode uint32, n int, name string, bytes int64) []trace.Op {
	ops := []trace.Op{Mkdir(node, dir, mode)}
	for i := 0; i < n; i++ {
		ops = append(ops, Write(node, dir+"/"+fmt.Sprintf(name, i), bytes))
	}
	return ops
}

// Op is any other set-up operation of process 1 on node: kind on path,
// with path2 the second path of a rename or link.
func Op(node int, kind trace.Kind, path, path2 string) trace.Op {
	return trace.Op{Node: node, PID: 1, Kind: kind, Path: path, Path2: path2}
}

// AwayFrom returns the first of /<prefix>0, /<prefix>1, … that a plane
// of shards shards places on another shard than the top-level directory
// /dir; on one shard, /<prefix>0.
func AwayFrom(shards int, dir, prefix string) string {
	sm := ShardMap{Shards: shards}
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if shards <= 1 || sm.DirTarget(RootID, name) != sm.DirTarget(RootID, dir) {
			return "/" + name
		}
	}
}

// Plane checks, or'd together for CheckPlane.
const (
	// PlaneTables: the service's tables agree with each other.
	PlaneTables = 1 << iota
	// PlaneCaches: every leased client-cache entry equals its table row.
	PlaneCaches
	// PlaneFsck: the tables and the underlying file system agree. It
	// runs as one drained phase.
	PlaneFsck
	// PlaneUnder: the underlying file system's own invariants hold.
	PlaneUnder

	PlaneAll = PlaneTables | PlaneCaches | PlaneFsck
)

// CheckPlane fails t unless every check in checks holds.
func CheckPlane(t testing.TB, tb *cluster.Testbed, d *Deployment, checks int) {
	t.Helper()
	if checks&PlaneTables != 0 {
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if checks&PlaneCaches != 0 {
		if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if checks&PlaneFsck != 0 {
		var rep *FsckReport
		Drained(tb, "fsck", func(p *sim.Proc) { rep = Fsck(p, d.Service, tb.Mounts[0]) })
		if !rep.OK() {
			t.Fatal(rep)
		}
	}
	if checks&PlaneUnder != 0 {
		if err := tb.FS.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
