package conformance

import (
	"testing"

	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// memProvider assembles the in-memory reference provider; mounted with
// the given FUSE cost model. MemFS is the permissive reference model:
// full POSIX namespace semantics, but no mode checks, no durability
// and no metadata plane to crash or reshard.
func memProvider(name string, fuse params.FUSEParams) Provider {
	return Provider{
		Name: name,
		Capabilities: Capabilities{
			Hardlinks:          true,
			RenameOverNonempty: true,
			SnapshotReads:      true,
		},
		New: func(t *testing.T) *System {
			env := sim.NewEnv(1)
			return &System{
				Env:   env,
				Mount: vfs.NewMount(vfs.NewMemFS(), fuse),
				User:  vfs.Ctx{Node: 0, PID: 1, UID: 1000, GID: 100},
				Other: vfs.Ctx{Node: 0, PID: 2, UID: 2000, GID: 200},
				Root:  vfs.Ctx{Node: 0, PID: 3, UID: 0, GID: 0},
			}
		},
	}
}

// TestMemFS runs the battery against the in-memory reference file
// system, mounted without FUSE crossing costs.
func TestMemFS(t *testing.T) {
	Run(t, memProvider("memfs", params.FUSEParams{}))
}

// TestMemFSThroughFUSE repeats the battery with the FUSE cost model
// active: crossing charges must never change semantics.
func TestMemFSThroughFUSE(t *testing.T) {
	Run(t, memProvider("memfs-fuse", params.Default().FUSE))
}
