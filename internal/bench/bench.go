// Package bench holds what the tools and benchmarks share around the
// load itself: the target a workload drives, the tools' deployment
// flags and report, the gated bench records, and IOR v2 (LLNL —
// parallel data transfer rates, the paper's section IV), whose offset
// transfers have no trace form. The metadata benchmarks, metarates and
// mdtest, are trace generators run by internal/trace.
package bench

import (
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// Target is the mounted file system under test: one mount per node plus
// the simulation environment driving them.
type Target struct {
	Env    *sim.Env
	Mounts []*vfs.Mount
	// Ctx builds the caller context for a node/process pair.
	Ctx func(node, pid int) vfs.Ctx
}
