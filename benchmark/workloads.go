package main

import (
	"fmt"
	"math/rand"
	"time"

	"cofs/internal/params"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// Fixed shape of every workload: 16 nodes x 4 processes = 64 closed-loop
// streams (MPI ranks wait for each reply; no think time).
const (
	numNodes     = 16
	procsPerNode = 4
	numStreams   = numNodes * procsPerNode
)

// Operation counts at -scale 1. They are constants so a run has the
// same length on every commit; -scale shrinks them uniformly for tests.
const (
	stormFilesPerStream = 320  // create_storm: files each stream creates and removes
	stormEpilogueFiles  = 1024 // create_storm: files created before the crash
	mixDirs             = 8    // shared_dir_mix: shared directories
	mixPrecreated       = 32   // shared_dir_mix: files per stream made in set-up
	mixOpsPerStream     = 750  // shared_dir_mix: measured ops per stream
	hotDirs             = 256  // hot_stat: directories
	hotFilesPerDir      = 64   // hot_stat: files per directory (16384 in all)
	hotOpsPerStream     = 1600 // hot_stat: measured ops per stream
	smallFilesPerStream = 160  // smallfile_io: files each stream writes, reads, removes
	smallFileBytes      = 256 << 10
)

// expect is what a surviving path must look like when the run ends.
type expect struct {
	Type vfs.FileType
	Size int64
}

// phase is one barrier-delimited part of the measured run: all streams
// finish it before the next starts.
type phase struct {
	Name  string
	Trace *trace.Trace
}

// workload is one generated input: the configuration of the system
// under test, the traces to replay and the state they must leave.
type workload struct {
	Name string
	Cfg  params.Config
	// Setup is replayed before measurement and counted in setup_s.
	Setup *trace.Trace
	// Phases are the measured traces.
	Phases []phase
	// Epilogue is replayed after measurement; CrashAfter then crashes
	// and recovers the metadata plane before the checks run.
	Epilogue   *trace.Trace
	CrashAfter bool
	// Survivors maps every path that must exist at the end to its
	// expected type and size; Gone lists paths that must not.
	Survivors map[string]expect
	Gone      []string
	// DataBytes is the payload the measured phases move.
	DataBytes int64
	// Bare says whether the trace is also replayed on the bare PFS
	// mounts for pfs.bare_op_ms_mean and pfs.cofs_speedup.
	Bare bool
}

var workloadWhy = map[string]string{
	"create_storm":   "private-directory create/unlink storm: loads the commit path (RPC, service CPU, WAL, 2PC mkdirs) and the underlying pfs create; no contention, no cache use",
	"shared_dir_mix": "reads beside writes in 8 shared directories: loads lease recalls, row-lock waits, RPC queueing/batching and cross-shard rename",
	"hot_stat":       "read-only Zipf stats over 4x the client cache: loads the client cache, FUSE crossings, RPC and netsim; bypasses WAL, disk, 2PC, locks and pfs",
	"smallfile_io":   "256 KiB file write / cross-node read / unlink: loads blockstore, pfs tokens, disks and network bandwidth; the metadata plane is a few percent",
}

var workloadNames = []string{"create_storm", "shared_dir_mix", "hot_stat", "smallfile_io"}

// grownProfile is the COFS configuration every workload runs: the
// defaults plus the mechanisms grown since the paper prototype.
func grownProfile() params.Config {
	cfg := params.Default()
	cfg.COFS.MetadataShards = 4
	cfg.COFS.AttrLease = 30 * time.Second
	cfg.COFS.RPCBatch = true
	cfg.COFS.MetadataStore = "mdb"
	return cfg
}

func scaled(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// streamOf lists the streams as (node, pid) in a fixed order.
func streamOf(s int) (node, pid int) { return s / procsPerNode, s%procsPerNode + 1 }

// generate builds the named workload (one of workloadNames) from a
// seed: the same seed gives the same traces.
func generate(name string, seed int64, scale float64) *workload {
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + int64(len(name))))
	w := &workload{Name: name, Cfg: grownProfile(), Survivors: make(map[string]expect)}
	switch name {
	case "create_storm":
		genCreateStorm(w, rng, scale)
	case "shared_dir_mix":
		genSharedDirMix(w, rng, scale)
	case "hot_stat":
		genHotStat(w, rng, scale)
	case "smallfile_io":
		genSmallfileIO(w, rng, scale)
	default:
		panic("benchmark: unknown workload " + name)
	}
	for _, tr := range w.traces() {
		if err := tr.Validate(); err != nil {
			panic(fmt.Sprintf("benchmark: %s generated an invalid trace: %v", name, err))
		}
	}
	return w
}

// traces returns every trace of the workload in replay order.
func (w *workload) traces() []*trace.Trace {
	out := []*trace.Trace{w.Setup}
	for _, ph := range w.Phases {
		out = append(out, ph.Trace)
	}
	if w.Epilogue != nil {
		out = append(out, w.Epilogue)
	}
	return out
}

// measuredOps counts the operations of the measured phases.
func (w *workload) measuredOps() int {
	n := 0
	for _, ph := range w.Phases {
		n += len(ph.Trace.Ops)
	}
	return n
}

func op(s int, kind trace.Kind, path string) trace.Op {
	node, pid := streamOf(s)
	o := trace.Op{Node: node, PID: pid, Kind: kind, Path: path}
	switch kind {
	case trace.Create, trace.WriteFile:
		o.Mode = 0644
	case trace.Mkdir:
		o.Mode = 0755
	}
	return o
}

// genCreateStorm: each stream makes a private 4-leaf tree, creates its
// files round-robin over the leaves, then removes everything. The data
// plane is provisioned out of the way (16 PFS servers, one bucket level
// of 8192) so the metadata commit path holds a visible share of an op.
// The bucket level is wide because two streams on different nodes that
// hash to the same bucket trade its directory token on every create and
// finish last: at 1024 buckets ~30 such pairs, a different set per draw,
// swing the makespan by +-10 %; at 8192 there are ~4.
func genCreateStorm(w *workload, rng *rand.Rand, scale float64) {
	w.Cfg.PFS.Servers = 16
	w.Cfg.COFS.DirFanout = 8192
	w.Cfg.COFS.RandomSubdirs = 1
	files := scaled(stormFilesPerStream, scale)
	const leaves = 4

	setup := &trace.Trace{Ops: []trace.Op{op(0, trace.Mkdir, "/storm")}}
	create, remove := &trace.Trace{}, &trace.Trace{}
	for s := 0; s < numStreams; s++ {
		node, pid := streamOf(s)
		// Names do not depend on the seed: the hash-spread placement of
		// 320 directories over 4 shards would otherwise swing the shard
		// balance, and with it every vt.* metric, by 10-30 % per seed.
		root := fmt.Sprintf("/storm/n%02d.p%d", node, pid)
		create.Ops = append(create.Ops, op(s, trace.Mkdir, root))
		var leaf [leaves]string
		for l := range leaf {
			leaf[l] = fmt.Sprintf("%s/l%d", root, l)
			create.Ops = append(create.Ops, op(s, trace.Mkdir, leaf[l]))
		}
		paths := make([]string, files)
		for i := range paths {
			paths[i] = fmt.Sprintf("%s/f%05d", leaf[i%leaves], i)
			create.Ops = append(create.Ops, op(s, trace.Create, paths[i]))
		}
		rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
		for _, path := range paths {
			remove.Ops = append(remove.Ops, op(s, trace.Unlink, path))
		}
		for l := range leaf {
			remove.Ops = append(remove.Ops, op(s, trace.Rmdir, leaf[l]))
		}
		remove.Ops = append(remove.Ops, op(s, trace.Rmdir, root))
		w.Gone = append(w.Gone, root, paths[0])
	}
	w.Setup = setup
	w.Phases = []phase{{"create", create}, {"remove", remove}}
	w.Survivors["/storm"] = expect{Type: vfs.TypeDir}

	// Epilogue: one stream per node creates files that must survive a
	// crash of the whole metadata plane.
	epi := &trace.Trace{Ops: []trace.Op{op(0, trace.Mkdir, "/after")}}
	w.Survivors["/after"] = expect{Type: vfs.TypeDir}
	perNode := scaled(stormEpilogueFiles, scale) / numNodes
	if perNode < 1 {
		perNode = 1
	}
	for n := 0; n < numNodes; n++ {
		s := n * procsPerNode
		dir := fmt.Sprintf("/after/n%02d", n)
		epi.Ops = append(epi.Ops, op(s, trace.Mkdir, dir))
		w.Survivors[dir] = expect{Type: vfs.TypeDir}
		for i := 0; i < perNode; i++ {
			path := fmt.Sprintf("%s/f%04d", dir, i)
			epi.Ops = append(epi.Ops, op(s, trace.Create, path))
			w.Survivors[path] = expect{Type: vfs.TypeRegular}
		}
	}
	w.Epilogue = epi
	w.CrashAfter = true
}

// share is one kind's percentage of an operation mix.
type share struct {
	kind trace.Kind
	pct  int
}

// mixShares is the shared_dir_mix operation mix.
var mixShares = []share{
	{trace.Stat, 40}, {trace.Utime, 15}, {trace.OpenClose, 10}, {trace.Readdir, 1},
	{trace.Create, 14}, {trace.Rename, 10}, {trace.Unlink, 10},
}

// kindDeck returns n kinds in the given exact proportions, shuffled.
func kindDeck(rng *rand.Rand, n int, shares []share) []trace.Kind {
	deck := make([]trace.Kind, 0, n)
	for _, sh := range shares {
		for i := 0; i < n*sh.pct/100; i++ {
			deck = append(deck, sh.kind)
		}
	}
	for len(deck) < n { // rounding remainder goes to the first kind
		deck = append(deck, shares[0].kind)
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// genSharedDirMix: 8 shared directories, each worked by 8 streams on 8
// different nodes. A stream mutates only files it owns, so no operation
// can fail, but every create, rename and unlink lands in a directory 7
// other nodes read and write.
func genSharedDirMix(w *workload, rng *rand.Rand, scale float64) {
	ops := scaled(mixOpsPerStream, scale)
	dirOf := func(d int) string { return fmt.Sprintf("/mix/d%d", d%mixDirs) }
	hotOf := func(d int) string { return dirOf(d) + "/hot" }

	setup := &trace.Trace{Ops: []trace.Op{op(0, trace.Mkdir, "/mix")}}
	w.Survivors["/mix"] = expect{Type: vfs.TypeDir}
	for d := 0; d < mixDirs; d++ {
		setup.Ops = append(setup.Ops, op(0, trace.Mkdir, dirOf(d)))
		w.Survivors[dirOf(d)] = expect{Type: vfs.TypeDir}
	}
	run := &trace.Trace{}
	for s := 0; s < numStreams; s++ {
		node, pid := streamOf(s)
		// Streams with the same pid on nodes of the same parity share a
		// directory: 8 streams, 8 different nodes.
		home := (node%2)*procsPerNode + pid - 1
		if node < 2 {
			setup.Ops = append(setup.Ops, op(s, trace.Create, hotOf(home)))
			w.Survivors[hotOf(home)] = expect{Type: vfs.TypeRegular}
		}
		type owned struct {
			path string
			dir  int
		}
		mine := make([]owned, 0, mixPrecreated+ops)
		seq := 0
		fresh := func(dir int) string {
			seq++
			return fmt.Sprintf("%s/s%02d-%05d-%03x", dirOf(dir), s, seq, rng.Intn(1<<12))
		}
		for i := 0; i < mixPrecreated; i++ {
			path := fresh(home)
			setup.Ops = append(setup.Ops, op(s, trace.Create, path))
			mine = append(mine, owned{path, home})
		}
		for _, kind := range kindDeck(rng, ops, mixShares) {
			if len(mine) == 0 {
				kind = trace.Create // nothing left to work on
			}
			switch kind {
			case trace.Create:
				path := fresh(home)
				run.Ops = append(run.Ops, op(s, trace.Create, path))
				mine = append(mine, owned{path, home})
			case trace.Stat, trace.Utime:
				path := mine[rng.Intn(len(mine))].path
				if rng.Intn(20) == 0 { // 5 %: the directory's hot file
					path = hotOf(home)
				}
				run.Ops = append(run.Ops, op(s, kind, path))
			case trace.OpenClose:
				run.Ops = append(run.Ops, op(s, kind, mine[rng.Intn(len(mine))].path))
			case trace.Readdir:
				run.Ops = append(run.Ops, op(s, kind, dirOf(home)))
			case trace.Rename:
				j := rng.Intn(len(mine))
				dst := fresh(mine[j].dir + 1)
				o := op(s, trace.Rename, mine[j].path)
				o.Path2 = dst
				run.Ops = append(run.Ops, o)
				w.Gone = append(w.Gone, mine[j].path)
				mine[j] = owned{dst, mine[j].dir + 1}
			case trace.Unlink:
				j := rng.Intn(len(mine))
				run.Ops = append(run.Ops, op(s, trace.Unlink, mine[j].path))
				w.Gone = append(w.Gone, mine[j].path)
				mine[j] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
			}
		}
		for _, f := range mine {
			w.Survivors[f.path] = expect{Type: vfs.TypeRegular}
		}
	}
	w.Setup = setup
	w.Phases = []phase{{"mix", run}}
	w.Bare = true
}

var hotShares = []share{{trace.Stat, 85}, {trace.OpenClose, 12}, {trace.Readdir, 3}}

// genHotStat: a read-only namespace of 16384 files, four times what one
// client's attribute cache holds, read with a Zipf(1.1) popularity over
// a seed-shuffled file list, so the hot head fits the cache and the
// tail does not.
func genHotStat(w *workload, rng *rand.Rand, scale float64) {
	ops := scaled(hotOpsPerStream, scale)
	dirs := scaled(hotDirs, scale)
	if dirs < numStreams {
		dirs = numStreams
	}
	dirs -= dirs % numStreams
	setup := &trace.Trace{Ops: []trace.Op{op(0, trace.Mkdir, "/hot")}}
	w.Survivors["/hot"] = expect{Type: vfs.TypeDir}
	var files []string
	for d := 0; d < dirs; d++ {
		s := d % numStreams
		dir := fmt.Sprintf("/hot/d%03d", d)
		setup.Ops = append(setup.Ops, op(s, trace.Mkdir, dir))
		w.Survivors[dir] = expect{Type: vfs.TypeDir}
		for f := 0; f < hotFilesPerDir; f++ {
			path := fmt.Sprintf("%s/f%02d", dir, f)
			setup.Ops = append(setup.Ops, op(s, trace.Create, path))
			w.Survivors[path] = expect{Type: vfs.TypeRegular}
			files = append(files, path)
		}
	}
	// The popularity ranking is shuffled with a constant, not the seed:
	// a tenth of all accesses go to the top file, so which shard the
	// few hottest files live on would otherwise decide the run.
	rank := rand.New(rand.NewSource(20100308))
	rank.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(files)-1))
	run := &trace.Trace{}
	for s := 0; s < numStreams; s++ {
		for _, kind := range kindDeck(rng, ops, hotShares) {
			path := files[zipf.Uint64()]
			if kind == trace.Readdir {
				path = path[:len(path)-len("/f00")]
			}
			run.Ops = append(run.Ops, op(s, kind, path))
		}
	}
	w.Setup = setup
	w.Phases = []phase{{"read", run}}
}

// genSmallfileIO: each stream writes its files, reads the files of the
// same-numbered stream on the next node (so no read is served from the
// reader's own page pool), then removes its own.
func genSmallfileIO(w *workload, rng *rand.Rand, scale float64) {
	files := scaled(smallFilesPerStream, scale)
	dirOf := func(s int) string {
		node, pid := streamOf(s)
		return fmt.Sprintf("/small/n%02d.p%d", node, pid)
	}
	setup := &trace.Trace{Ops: []trace.Op{op(0, trace.Mkdir, "/small")}}
	w.Survivors["/small"] = expect{Type: vfs.TypeDir}
	names := make([][]string, numStreams)
	write, read, remove := &trace.Trace{}, &trace.Trace{}, &trace.Trace{}
	for s := 0; s < numStreams; s++ {
		setup.Ops = append(setup.Ops, op(s, trace.Mkdir, dirOf(s)))
		w.Survivors[dirOf(s)] = expect{Type: vfs.TypeDir}
		names[s] = make([]string, files)
		for i := range names[s] {
			names[s][i] = fmt.Sprintf("%s/out-%04d", dirOf(s), i)
			o := op(s, trace.WriteFile, names[s][i])
			o.Bytes = smallFileBytes
			write.Ops = append(write.Ops, o)
		}
	}
	for s := 0; s < numStreams; s++ {
		next := (s + procsPerNode) % numStreams
		for _, i := range rng.Perm(files) {
			o := op(s, trace.ReadFile, names[next][i])
			o.Bytes = smallFileBytes
			read.Ops = append(read.Ops, o)
		}
		for _, i := range rng.Perm(files) {
			remove.Ops = append(remove.Ops, op(s, trace.Unlink, names[s][i]))
		}
		w.Gone = append(w.Gone, names[s][0])
	}
	w.Setup = setup
	w.Phases = []phase{{"write", write}, {"read", read}, {"remove", remove}}
	w.DataBytes = 2 * int64(numStreams) * int64(files) * smallFileBytes
	w.Bare = true
}
