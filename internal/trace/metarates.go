package trace

import "fmt"

// MetaratesConfig configures one metarates run (UCAR/NCAR — parallel
// metadata transaction rates, the paper's section II-A benchmark).
type MetaratesConfig struct {
	Nodes        int
	ProcsPerNode int
	FilesPerProc int
	// Dir is the shared directory all files are created in.
	Dir string
	// Ops selects the measured operations in order; the default is the
	// paper's set: create, stat, utime, open.
	Ops []string
}

// DefaultOps is the paper's operation set.
var DefaultOps = []string{"create", "stat", "utime", "open"}

// Metarates generates the benchmark following the paper's procedure,
// every file in the one shared directory: an unnamed phase makes the
// directory; the create phase creates all files in parallel, and an
// unnamed phase deletes them in parallel; every other operation is an
// unnamed phase in which the first node sequentially creates all
// files, the named phase in which every process operates on its own
// files in parallel, and an unnamed phase in which the first node
// deletes them again. Process q of node n is rank n*ProcsPerNode+q and
// runs as pid q+1; the first node's serial passes run as pid 0.
func Metarates(cfg MetaratesConfig) []Phase {
	if cfg.ProcsPerNode < 1 {
		cfg.ProcsPerNode = 1
	}
	ops := cfg.Ops
	if len(ops) == 0 {
		ops = DefaultOps
	}
	ranks := cfg.Nodes * cfg.ProcsPerNode
	files := make([]string, ranks*cfg.FilesPerProc) // rank r's i-th file at r*FilesPerProc+i
	for r := 0; r < ranks; r++ {
		for i := 0; i < cfg.FilesPerProc; i++ {
			files[r*cfg.FilesPerProc+i] = fmt.Sprintf("%s/metarates.%04d.%06d", cfg.Dir, r, i)
		}
	}
	// parallel has every rank work on its own files.
	parallel := func(kind Kind) []Op {
		out := make([]Op, len(files))
		for j, path := range files {
			r := j / cfg.FilesPerProc
			out[j] = Op{Node: r / cfg.ProcsPerNode, PID: r%cfg.ProcsPerNode + 1, Kind: kind, Path: path, Mode: 0644}
		}
		return out
	}
	// serial has the first node work on every file, interleaving ranks
	// so consecutive allocations belong to different ranks (as
	// concurrent creation would produce).
	serial := func(kind Kind) []Op {
		out := make([]Op, 0, len(files))
		for i := 0; i < cfg.FilesPerProc; i++ {
			for r := 0; r < ranks; r++ {
				out = append(out, Op{Kind: kind, Path: files[r*cfg.FilesPerProc+i], Mode: 0644})
			}
		}
		return out
	}
	phases := []Phase{{Ops: []Op{{Kind: Mkdir, Path: cfg.Dir, Mode: 0777}}}}
	for _, name := range ops {
		switch kind := metaratesKinds[name]; kind {
		case Create:
			phases = append(phases, Phase{name, parallel(Create)}, Phase{Ops: parallel(Unlink)})
		case Stat, Utime, OpenClose:
			phases = append(phases, Phase{Ops: serial(Create)}, Phase{name, parallel(kind)}, Phase{Ops: serial(Unlink)})
		default:
			panic("metarates: unknown op " + name)
		}
	}
	return phases
}

// metaratesKinds maps a metarates operation to the traced kind that
// replays it; an operation absent here is unknown.
var metaratesKinds = map[string]Kind{"create": Create, "stat": Stat, "utime": Utime, "open": OpenClose}
