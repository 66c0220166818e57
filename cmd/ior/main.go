// Command ior runs the IOR v2 data-transfer benchmark (LLNL) against the
// simulated testbed, on either the bare GPFS-like file system or COFS.
//
// Usage:
//
//	ior [-fs gpfs|cofs] [-nodes N] [-size BYTES] [-xfer BYTES] [-shared] [-random] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/trace"
)

func main() {
	fsKind := flag.String("fs", "gpfs", "file system under test: gpfs or cofs")
	nodes := flag.Int("nodes", 4, "number of compute nodes")
	size := flag.Int64("size", 1<<30, "aggregate data size in bytes")
	xfer := flag.Int64("xfer", 1<<20, "transfer size per call in bytes")
	shared := flag.Bool("shared", false, "single shared file instead of file-per-process")
	random := flag.Bool("random", false, "random offsets instead of sequential")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	run := bench.IORConfig{
		Nodes:          *nodes,
		AggregateBytes: *size,
		TransferSize:   *xfer,
		Shared:         *shared,
		Random:         *random,
		Dir:            "/ior",
		ReadBack:       true,
	}
	if err := run.Check(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *fsKind != "gpfs" && *fsKind != "cofs" {
		fmt.Fprintln(os.Stderr, "ior: -fs must be gpfs or cofs")
		os.Exit(2)
	}
	tb := cluster.New(*seed, *nodes, params.Default())
	target := trace.Target{Env: tb.Env, Mounts: tb.Mounts}
	if *fsKind == "cofs" {
		target.Mounts = core.Deploy(tb, nil).Mounts
	}

	res := bench.IOR(target, run)

	layout := "separate files"
	if *shared {
		layout = "single shared file"
	}
	access := "sequential"
	if *random {
		access = "random"
	}
	fmt.Printf("ior: fs=%s nodes=%d aggregate=%d MiB xfer=%d KiB layout=%q access=%s\n",
		*fsKind, *nodes, *size>>20, *xfer>>10, layout, access)
	fmt.Printf("write: %8.1f MB/s  (%v, open stagger %v)\n", res.WriteMBps, res.WriteTime, res.OpenStagger)
	fmt.Printf("read:  %8.1f MB/s  (%v)\n", res.ReadMBps, res.ReadTime)
}
