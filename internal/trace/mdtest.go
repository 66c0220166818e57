package trace

import "fmt"

// This file generates LLNL's mdtest, the other standard HPC metadata
// benchmark alongside metarates: every rank works on files spread
// through a directory tree, and the harness reports operations per
// second for each phase (tree creation, file creation, stat, removal,
// tree removal). Where metarates stresses one shared flat directory,
// mdtest exercises the namespace as a tree — the shape real application
// working sets have, and a natural companion workload for a layer that
// virtualizes the directory hierarchy.

// MDTestConfig configures one mdtest run.
type MDTestConfig struct {
	// Nodes is the number of participating compute nodes.
	Nodes int
	// ProcsPerNode is how many ranks each node runs (mdtest launches one
	// MPI rank per slot; 0 means 1). Ranks are laid out round-robin over
	// the nodes.
	ProcsPerNode int
	// Depth is the directory tree depth below the root work dir.
	Depth int
	// Branch is the fanout at every tree level.
	Branch int
	// FilesPerRank is how many files each rank creates, spread round-
	// robin over the leaf directories.
	FilesPerRank int
	// Shared selects one tree shared by all ranks (the contended mode,
	// like metarates' shared directory); otherwise every rank works in
	// a private subtree (mdtest -u).
	Shared bool
	// StatShift makes rank r stat the files of rank (r+1) mod N, so
	// attribute reads are guaranteed cross-node (mdtest -N).
	StatShift bool
	// Dir is the root work directory.
	Dir string
}

// MDTestPhases lists the measured phases in execution order.
var MDTestPhases = []string{"tree-create", "file-create", "file-stat", "file-remove", "tree-remove"}

// treeDirs enumerates every directory of a Branch^Depth tree under
// root, parents before children, and returns its deepest level too.
func treeDirs(root string, depth, branch int) (dirs, leaves []string) {
	dirs = []string{root}
	leaves = dirs
	for d := 0; d < depth; d++ {
		var next []string
		for _, parent := range leaves {
			for b := 0; b < branch; b++ {
				next = append(next, fmt.Sprintf("%s/d%d.%d", parent, d, b))
			}
		}
		dirs = append(dirs, next...)
		leaves = next
	}
	return dirs, leaves
}

// MDTest generates the benchmark: an unnamed phase making the work dir,
// then the five MDTestPhases, each a barrier as in mdtest. Rank r runs
// on node r mod Nodes as pid 1 + r/Nodes, and a phase lists its ranks'
// operations in rank order.
func MDTest(cfg MDTestConfig) []Phase {
	if cfg.Dir == "" {
		cfg.Dir = "/mdtest"
	}
	if cfg.Branch < 1 {
		cfg.Branch = 1
	}
	if cfg.ProcsPerNode < 1 {
		cfg.ProcsPerNode = 1
	}
	ranks := cfg.Nodes * cfg.ProcsPerNode
	// In shared mode rank 0 builds the single tree; in unique mode
	// every rank builds its own.
	treeRanks := ranks
	if cfg.Shared {
		treeRanks = 1
	}
	op := func(rank int, kind Kind, path string, mode uint32) Op {
		return Op{Node: rank % cfg.Nodes, PID: 1 + rank/cfg.Nodes, Kind: kind, Path: path, Mode: mode}
	}
	var treeCreate, treeRemove []Op
	files := make([][]string, ranks)
	for r := 0; r < ranks; r++ {
		root := fmt.Sprintf("%s/rank%04d", cfg.Dir, r)
		if cfg.Shared {
			root = cfg.Dir + "/shared"
		}
		dirs, leaves := treeDirs(root, cfg.Depth, cfg.Branch)
		for i := 0; r < treeRanks && i < len(dirs); i++ {
			treeCreate = append(treeCreate, op(r, Mkdir, dirs[i], 0777))
			treeRemove = append(treeRemove, op(r, Rmdir, dirs[len(dirs)-1-i], 0))
		}
		files[r] = make([]string, cfg.FilesPerRank)
		for i := range files[r] {
			files[r][i] = fmt.Sprintf("%s/f.%04d.%06d", leaves[i%len(leaves)], r, i)
		}
	}
	create := make([]Op, 0, ranks*cfg.FilesPerRank)
	stat := make([]Op, 0, ranks*cfg.FilesPerRank)
	remove := make([]Op, 0, ranks*cfg.FilesPerRank)
	for r := 0; r < ranks; r++ {
		target := r
		if cfg.StatShift {
			target = (r + 1) % ranks
		}
		for i := 0; i < cfg.FilesPerRank; i++ {
			create = append(create, op(r, Create, files[r][i], 0644))
			stat = append(stat, op(r, Stat, files[target][i], 0))
			remove = append(remove, op(r, Unlink, files[r][i], 0))
		}
	}
	return []Phase{
		{Ops: []Op{{Node: 0, PID: 1, Kind: Mkdir, Path: cfg.Dir, Mode: 0777}}},
		{Name: "tree-create", Ops: treeCreate},
		{Name: "file-create", Ops: create},
		{Name: "file-stat", Ops: stat},
		{Name: "file-remove", Ops: remove},
		{Name: "tree-remove", Ops: treeRemove},
	}
}
