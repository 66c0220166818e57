package bench

import (
	"fmt"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// IORConfig configures one IOR run (IOR v2 semantics, POSIX interface:
// aggregate data size split across participating processes, sequential
// or random access, one file per process or a single shared file).
type IORConfig struct {
	Nodes          int
	AggregateBytes int64
	TransferSize   int64
	Shared         bool
	Random         bool
	Dir            string
	// ReadBack, when true, runs the read phase after the write phase
	// (reads hit whatever the write phase left in caches, as in IOR
	// unless reorderTasks is set — the paper's separate-file reads were
	// served from the writing node's cache).
	ReadBack bool
}

// IORResult reports aggregate rates in MB/s plus phase internals.
type IORResult struct {
	WriteMBps   float64
	ReadMBps    float64
	WriteTime   time.Duration
	ReadTime    time.Duration
	OpenStagger time.Duration // spread between first and last open completion
}

func iorFile(dir string, rank int, shared bool) string {
	if shared {
		return dir + "/ior.shared"
	}
	return fmt.Sprintf("%s/ior.%04d", dir, rank)
}

// xfer is the transfer size: TransferSize, or 1 MiB when it is unset.
func (cfg IORConfig) xfer() int64 {
	if cfg.TransferSize > 0 {
		return cfg.TransferSize
	}
	return 1 << 20
}

// Check reports why cfg cannot run: the aggregate must split into a
// positive whole number of transfers per node, so that the rates are
// computed over exactly the bytes the run moves.
func (cfg IORConfig) Check() error {
	if cfg.Nodes < 1 {
		return fmt.Errorf("ior: %d nodes, want at least 1", cfg.Nodes)
	}
	if per := int64(cfg.Nodes) * cfg.xfer(); cfg.AggregateBytes < per || cfg.AggregateBytes%per != 0 {
		return fmt.Errorf("ior: aggregate %d B is not a positive whole number of %d B transfers on each of %d nodes (a multiple of %d B)",
			cfg.AggregateBytes, cfg.xfer(), cfg.Nodes, per)
	}
	return nil
}

// IOR runs the benchmark and returns aggregate transfer rates. The write
// phase measures first-open to last-close (capturing the serialized-open
// effect of Table I); the read phase likewise. It panics on a config
// Check rejects.
func IOR(t trace.Target, cfg IORConfig) *IORResult {
	if err := cfg.Check(); err != nil {
		panic("bench: " + err.Error())
	}
	cfg.TransferSize = cfg.xfer()
	perNode := cfg.AggregateBytes / int64(cfg.Nodes)
	res := &IORResult{}

	t.Env.Spawn("ior-setup", func(p *sim.Proc) {
		m, ctx := t.Mounts[0], cluster.Ctx(0, 0)
		if err := m.MkdirAll(p, ctx, cfg.Dir, 0777); err != nil {
			panic(err)
		}
		if cfg.Shared {
			// Rank 0 creates the shared file.
			f, err := m.Create(p, ctx, iorFile(cfg.Dir, 0, true), 0644)
			if err != nil {
				panic(err)
			}
			if err := f.Close(p); err != nil {
				panic(err)
			}
		}
	})
	t.Env.MustRun()

	var openDone stats.Summary
	start := t.Env.Now()
	forEachNode(t, cfg.Nodes, func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, node int) {
		name := iorFile(cfg.Dir, node, cfg.Shared)
		var f *vfs.File
		var err error
		if cfg.Shared {
			f, err = m.Open(p, ctx, name, vfs.OpenWrite)
		} else {
			f, err = m.Create(p, ctx, name, 0644)
		}
		if err != nil {
			panic(fmt.Sprintf("ior open for write: %v", err))
		}
		openDone.Add(p.Now() - start)
		base := int64(0)
		if cfg.Shared {
			base = int64(node) * perNode
		}
		for _, off := range transferOffsets(t, node, perNode, cfg.TransferSize, cfg.Random) {
			if _, err := f.WriteAt(p, base+off, cfg.TransferSize); err != nil {
				panic(err)
			}
		}
		if err := f.Fsync(p); err != nil {
			panic(err)
		}
		if err := f.Close(p); err != nil {
			panic(err)
		}
	})
	res.WriteTime = t.Env.Now() - start
	res.WriteMBps = stats.MBps(cfg.AggregateBytes, res.WriteTime)
	res.OpenStagger = openDone.Max() - openDone.Min()

	if !cfg.ReadBack {
		return res
	}
	start = t.Env.Now()
	forEachNode(t, cfg.Nodes, func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, node int) {
		name := iorFile(cfg.Dir, node, cfg.Shared)
		f, err := m.Open(p, ctx, name, vfs.OpenRead)
		if err != nil {
			panic(fmt.Sprintf("ior open for read: %v", err))
		}
		base := int64(0)
		if cfg.Shared {
			base = int64(node) * perNode
		}
		for _, off := range transferOffsets(t, node+cfg.Nodes, perNode, cfg.TransferSize, cfg.Random) {
			if _, err := f.ReadAt(p, base+off, cfg.TransferSize); err != nil {
				panic(err)
			}
		}
		if err := f.Close(p); err != nil {
			panic(err)
		}
	})
	res.ReadTime = t.Env.Now() - start
	res.ReadMBps = stats.MBps(cfg.AggregateBytes, res.ReadTime)
	return res
}

// transferOffsets returns the offsets of each transfer within a node's
// region, sequential or deterministically shuffled.
func transferOffsets(t trace.Target, stream int, perNode, xfer int64, random bool) []int64 {
	n := perNode / xfer
	offs := make([]int64, n)
	for i := range offs {
		offs[i] = int64(i) * xfer
	}
	if random {
		rng := t.Env.RNG(fmt.Sprintf("ior.%d", stream))
		rng.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
	}
	return offs
}

// forEachNode runs fn concurrently on each node (single process per
// node, as the IOR runs in the paper) and waits for completion.
func forEachNode(t trace.Target, nodes int, fn func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, node int)) {
	for n := 0; n < nodes; n++ {
		node := n
		t.Env.Spawn(fmt.Sprintf("ior%d", node), func(p *sim.Proc) {
			fn(p, t.Mounts[node], cluster.Ctx(node, 1), node)
		})
	}
	t.Env.MustRun()
}
