package core

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/trace"
)

// The tests of this package share one harness, exported like
// export_test.go so the external tests use it too: Rig deploys, Drained
// runs one drained phase, Play runs set-up operations through the one
// replayer (trace.Run), and CheckPlane holds the plane to itself.

// Rig deploys COFS on a testbed of nodes nodes seeded with seed, under
// the default parameters changed by each tweak in turn, and drains the
// deployment's install-time initialization.
func Rig(t testing.TB, seed int64, nodes int, tweaks ...func(*params.Config)) (*cluster.Testbed, *Deployment) {
	t.Helper()
	cfg := params.Default()
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	tb := cluster.New(seed, nodes, cfg)
	d := Deploy(tb, nil)
	tb.Run()
	return tb, d
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

// Play runs ops as one phase of trace.Run on the deployment's mounts —
// stream (node, pid) as cluster.Ctx(node, pid), streams side by side,
// each stream's ops in order — and fails t at the first error.
func Play(t testing.TB, tb *cluster.Testbed, d *Deployment, ops ...trace.Op) {
	t.Helper()
	target := trace.Target{Env: tb.Env, Mounts: d.Mounts}
	if _, err := trace.Run(target, []trace.Phase{{Ops: ops}}, nil); err != nil {
		t.Fatal(err)
	}
}

// Mkdir, Create, Write and Stat are set-up operations of process 1 on
// node; a directory or file gets mode, a written file 0644.
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
