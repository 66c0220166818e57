package pfs_test

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/lock"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/vfs"
)

var ctx = cluster.Ctx(0, 1)

// single spins up a 1-node testbed and runs fn on node 0.
func single(t *testing.T, fn func(tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount)) *cluster.Testbed {
	t.Helper()
	tb := cluster.New(1, 1, params.Default())
	tb.Env.Spawn("test", func(p *sim.Proc) { fn(tb, p, tb.Mounts[0]) })
	if err := tb.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tb.FS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestCreateStatRoundtrip(t *testing.T) {
	single(t, func(tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount) {
		f, err := m.Create(p, ctx, "/a", 0644)
		if err != nil {
			t.Fatal(err)
		}
		f.Close(p)
		attr, err := m.Stat(p, ctx, "/a")
		if err != nil {
			t.Fatal(err)
		}
		if attr.Type != vfs.TypeRegular || attr.Mode != 0644 || attr.UID != 1000 {
			t.Fatalf("attr=%+v", attr)
		}
		if _, err := m.Stat(p, ctx, "/missing"); err != vfs.ErrNotExist {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestCreateExistsFails(t *testing.T) {
	single(t, func(tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount) {
		f, err := m.Create(p, ctx, "/dup", 0644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(p, 0, 100)
		f.Close(p)
		// Mount.Create retries as open+trunc on ErrExist (POSIX
		// O_CREAT): the file must end up truncated, not duplicated.
		g, err := m.Create(p, ctx, "/dup", 0644)
		if err != nil {
			t.Fatal(err)
		}
		g.Close(p)
		attr, _ := m.Stat(p, ctx, "/dup")
		if attr.Size != 0 {
			t.Fatalf("size=%d, want truncated 0", attr.Size)
		}
	})
}

func TestMkdirTreeAndReaddir(t *testing.T) {
	single(t, func(tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount) {
		if err := m.MkdirAll(p, ctx, "/x/y", 0755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/x/y/f%d", i), 0644)
			if err != nil {
				t.Fatal(err)
			}
			f.Close(p)
		}
		ents, err := m.Readdir(p, ctx, "/x/y")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 5 {
			t.Fatalf("entries=%d", len(ents))
		}
		if ents[0].Name != "f0" || ents[4].Name != "f4" {
			t.Fatalf("sorted order broken: %v", ents)
		}
	})
}

func TestUnlinkAndHardLink(t *testing.T) {
	single(t, func(tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount) {
		f, _ := m.Create(p, ctx, "/f", 0644)
		f.Close(p)
		if err := m.Link(p, ctx, "/f", "/g"); err != nil {
			t.Fatal(err)
		}
		attr, _ := m.Stat(p, ctx, "/g")
		if attr.Nlink != 2 {
			t.Fatalf("nlink=%d", attr.Nlink)
		}
		if err := m.Unlink(p, ctx, "/f"); err != nil {
			t.Fatal(err)
		}
		attr, err := m.Stat(p, ctx, "/g")
		if err != nil || attr.Nlink != 1 {
			t.Fatalf("attr=%+v err=%v", attr, err)
		}
		if err := m.Unlink(p, ctx, "/g"); err != nil {
			t.Fatal(err)
		}
		st, _ := m.StatFS(p, ctx)
		if st.Files != 1 { // only root left
			t.Fatalf("files=%d", st.Files)
		}
	})
}

func TestRenameAndSymlink(t *testing.T) {
	single(t, func(tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount) {
		m.MkdirAll(p, ctx, "/a", 0755)
		m.MkdirAll(p, ctx, "/b", 0755)
		f, _ := m.Create(p, ctx, "/a/file", 0600)
		f.Close(p)
		if err := m.Rename(p, ctx, "/a/file", "/b/moved"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Stat(p, ctx, "/a/file"); err != vfs.ErrNotExist {
			t.Fatal("source survived")
		}
		if _, err := m.Stat(p, ctx, "/b/moved"); err != nil {
			t.Fatal(err)
		}
		if err := m.Symlink(p, ctx, "/b/moved", "/lnk"); err != nil {
			t.Fatal(err)
		}
		tgt, err := m.Readlink(p, ctx, "/lnk")
		if err != nil || tgt != "/b/moved" {
			t.Fatalf("readlink=%q err=%v", tgt, err)
		}
	})
}

func TestPermissionChecks(t *testing.T) {
	single(t, func(tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount) {
		if err := m.Mkdir(p, ctx, "/locked", 0500); err != nil {
			t.Fatal(err)
		}
		other := vfs.Ctx{Node: 0, PID: 2, UID: 2000, GID: 200}
		if _, err := m.Create(p, other, "/locked/f", 0644); err != vfs.ErrPerm {
			t.Fatalf("create in 0500 dir by other uid: %v", err)
		}
		// Owner with only r-x also cannot create.
		if _, err := m.Create(p, ctx, "/locked/f", 0644); err != vfs.ErrPerm {
			t.Fatalf("create in r-x dir by owner: %v", err)
		}
		f, _ := m.Create(p, ctx, "/private", 0600)
		f.Close(p)
		if _, err := m.Open(p, other, "/private", vfs.OpenRead); err != vfs.ErrPerm {
			t.Fatalf("open 0600 by other: %v", err)
		}
		if _, err := m.Chmod(p, other, "/private", 0777); err != vfs.ErrPerm {
			t.Fatalf("chmod by non-owner: %v", err)
		}
	})
}

func TestUtimeSetsTimes(t *testing.T) {
	single(t, func(tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount) {
		f, _ := m.Create(p, ctx, "/f", 0644)
		f.Close(p)
		before := p.Now()
		p.Sleep(10 * time.Millisecond)
		attr, err := m.Utime(p, ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if attr.Mtime <= before {
			t.Fatalf("mtime=%v not advanced past %v", attr.Mtime, before)
		}
	})
}

func TestDataReadWrite(t *testing.T) {
	single(t, func(tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount) {
		f, _ := m.Create(p, ctx, "/data", 0644)
		n, err := f.WriteAt(p, 0, 10<<20)
		if err != nil || n != 10<<20 {
			t.Fatalf("write=%d err=%v", n, err)
		}
		attr, _ := m.Stat(p, ctx, "/data")
		if attr.Size != 10<<20 {
			t.Fatalf("size=%d", attr.Size)
		}
		// Cached read (just written): memory speed.
		start := p.Now()
		f.ReadAt(p, 0, 10<<20)
		cached := p.Now() - start
		f.Close(p)
		if cached > 50*time.Millisecond {
			t.Fatalf("cached read took %v, want memory speed", cached)
		}
	})
}

func TestRemoteReadSlowerThanCached(t *testing.T) {
	cfg := params.Default()
	tb := cluster.New(1, 2, cfg)
	var cached, remote time.Duration
	tb.Env.Spawn("writer", func(p *sim.Proc) {
		m0 := tb.Mounts[0]
		f, err := m0.Create(p, cluster.Ctx(0, 1), "/big", 0644)
		if err != nil {
			t.Error(err)
			return
		}
		f.WriteAt(p, 0, 32<<20)
		f.Close(p)

		start := p.Now()
		g, _ := m0.Open(p, cluster.Ctx(0, 1), "/big", vfs.OpenRead)
		g.ReadAt(p, 0, 32<<20)
		g.Close(p)
		cached = p.Now() - start

		// Node 1 reads the same file: must fetch from servers.
		m1 := tb.Mounts[1]
		start = p.Now()
		h, err := m1.Open(p, cluster.Ctx(1, 1), "/big", vfs.OpenRead)
		if err != nil {
			t.Error(err)
			return
		}
		h.ReadAt(p, 0, 32<<20)
		h.Close(p)
		remote = p.Now() - start
	})
	tb.Run()
	if remote < 5*cached {
		t.Fatalf("remote read %v not much slower than cached %v", remote, cached)
	}
}

// createFiles creates n files under dir from the given node, returning
// the mean per-create latency.
func createFiles(tb *cluster.Testbed, node, pid int, dir string, n int, tag string) *stats.Summary {
	sum := &stats.Summary{}
	tb.Env.Spawn(fmt.Sprintf("creator%d", node), func(p *sim.Proc) {
		m := tb.Mounts[node]
		cx := cluster.Ctx(node, pid)
		for i := 0; i < n; i++ {
			start := p.Now()
			f, err := m.Create(p, cx, fmt.Sprintf("%s/%s-%06d", dir, tag, i), 0644)
			if err != nil {
				panic(err)
			}
			f.Close(p)
			sum.Add(p.Now() - start)
		}
	})
	return sum
}

func TestSingleNodeCreateFastInSmallDir(t *testing.T) {
	cfg := params.Default()
	tb := cluster.New(1, 1, cfg)
	tb.Env.Spawn("setup", func(p *sim.Proc) {
		if err := tb.Mounts[0].Mkdir(p, ctx, "/d", 0777); err != nil {
			panic(err)
		}
	})
	tb.Run()
	before := tb.Clients[0].Stats.LocalCreates
	sum := createFiles(tb, 0, 1, "/d", 400, "x")
	tb.Run()
	if got := sum.MeanMs(); got > 2.0 {
		t.Fatalf("small-dir single-node create mean %.3fms, want < 2ms (delegated)", got)
	}
	if got := tb.Clients[0].Stats.LocalCreates - before; got != 400 {
		t.Fatalf("local creates=%d, want 400", got)
	}
}

func TestCreateSlowsBeyondDelegationLimit(t *testing.T) {
	cfg := params.Default()
	tb := cluster.New(1, 1, cfg)
	tb.Env.Spawn("setup", func(p *sim.Proc) {
		if err := tb.Mounts[0].Mkdir(p, ctx, "/d", 0777); err != nil {
			panic(err)
		}
	})
	tb.Run()
	small := createFiles(tb, 0, 1, "/d", 500, "a")
	tb.Run()
	large := createFiles(tb, 0, 1, "/d", 500, "b") // entries 500..1000
	tb.Run()
	if small.MeanMs() >= large.MeanMs() {
		t.Fatalf("create small=%.3fms large=%.3fms: no slowdown past delegation limit",
			small.MeanMs(), large.MeanMs())
	}
	if large.MeanMs() < 1.5 {
		t.Fatalf("past-limit create %.3fms suspiciously fast", large.MeanMs())
	}
}

// statPhase has node 0 create files in dir, then each node stat its
// rank-strided subset in parallel; returns per-node mean stat latencies.
func statPhase(t *testing.T, nodes, filesTotal int) (perOp *stats.Summary, tb *cluster.Testbed) {
	t.Helper()
	cfg := params.Default()
	tb = cluster.New(1, nodes, cfg)
	tb.Env.Spawn("setup", func(p *sim.Proc) {
		m := tb.Mounts[0]
		if err := m.Mkdir(p, ctx, "/shared", 0777); err != nil {
			panic(err)
		}
		for i := 0; i < filesTotal; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/shared/f%06d", i), 0644)
			if err != nil {
				panic(err)
			}
			f.Close(p)
		}
	})
	tb.Run()
	perOp = &stats.Summary{}
	for n := 0; n < nodes; n++ {
		node := n
		tb.Env.Spawn(fmt.Sprintf("stat%d", node), func(p *sim.Proc) {
			m := tb.Mounts[node]
			cx := cluster.Ctx(node, 1)
			for i := node; i < filesTotal; i += nodes {
				start := p.Now()
				if _, err := m.Stat(p, cx, fmt.Sprintf("/shared/f%06d", i)); err != nil {
					panic(err)
				}
				perOp.Add(p.Now() - start)
			}
		})
	}
	tb.Run()
	if err := tb.FS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return perOp, tb
}

func TestSingleNodeStatCliffAt1024(t *testing.T) {
	fast, _ := statPhase(t, 1, 900)
	slow, _ := statPhase(t, 1, 2600)
	if fast.MeanMs() > 1.0 {
		t.Fatalf("stat below maxFilesToCache: %.3fms, want sub-ms", fast.MeanMs())
	}
	if slow.MeanMs() < 4*fast.MeanMs() {
		t.Fatalf("no cliff: %.3fms below vs %.3fms above cache capacity",
			fast.MeanMs(), slow.MeanMs())
	}
}

func TestParallelStatCostlierThanLocal(t *testing.T) {
	local, _ := statPhase(t, 1, 512)
	shared, _ := statPhase(t, 4, 2048) // 512 per node
	if shared.MeanMs() < 3*local.MeanMs() {
		t.Fatalf("parallel shared-dir stat %.3fms vs local %.3fms: false sharing missing",
			shared.MeanMs(), local.MeanMs())
	}
}

func TestParallelCreateScalesBadlyWithNodes(t *testing.T) {
	perNodeCreate := func(nodes, files int) float64 {
		cfg := params.Default()
		tb := cluster.New(1, nodes, cfg)
		tb.Env.Spawn("setup", func(p *sim.Proc) {
			if err := tb.Mounts[0].Mkdir(p, ctx, "/shared", 0777); err != nil {
				panic(err)
			}
		})
		tb.Run()
		sum := &stats.Summary{}
		for n := 0; n < nodes; n++ {
			node := n
			tb.Env.Spawn(fmt.Sprintf("c%d", node), func(p *sim.Proc) {
				m := tb.Mounts[node]
				cx := cluster.Ctx(node, 1)
				for i := 0; i < files; i++ {
					start := p.Now()
					f, err := m.Create(p, cx, fmt.Sprintf("/shared/n%d-%06d", node, i), 0644)
					if err != nil {
						panic(err)
					}
					f.Close(p)
					sum.Add(p.Now() - start)
				}
			})
		}
		tb.Run()
		if err := tb.FS.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return sum.MeanMs()
	}
	one := perNodeCreate(1, 256)
	four := perNodeCreate(4, 256)
	eight := perNodeCreate(8, 256)
	if four < 5*one {
		t.Fatalf("4-node shared create %.2fms vs single %.2fms: contention too cheap", four, one)
	}
	if eight <= four {
		t.Fatalf("8-node create %.2fms not worse than 4-node %.2fms", eight, four)
	}
	t.Logf("create ms/op: 1n=%.2f 4n=%.2f 8n=%.2f", one, four, eight)
}

func TestSplitDirsAvoidContention(t *testing.T) {
	// The COFS hypothesis at the pfs level: creates into per-node small
	// directories are far cheaper than into one shared directory.
	run := func(shared bool) float64 {
		cfg := params.Default()
		tb := cluster.New(1, 4, cfg)
		tb.Env.Spawn("setup", func(p *sim.Proc) {
			m := tb.Mounts[0]
			if err := m.Mkdir(p, ctx, "/out", 0777); err != nil {
				panic(err)
			}
			if !shared {
				for n := 0; n < 4; n++ {
					if err := m.Mkdir(p, ctx, fmt.Sprintf("/out/n%d", n), 0777); err != nil {
						panic(err)
					}
				}
			}
		})
		tb.Run()
		sum := &stats.Summary{}
		for n := 0; n < 4; n++ {
			node := n
			tb.Env.Spawn("creator", func(p *sim.Proc) {
				m := tb.Mounts[node]
				cx := cluster.Ctx(node, 1)
				dir := "/out"
				if !shared {
					dir = fmt.Sprintf("/out/n%d", node)
				}
				for i := 0; i < 200; i++ {
					start := p.Now()
					f, err := m.Create(p, cx, fmt.Sprintf("%s/f%d-%d", dir, node, i), 0644)
					if err != nil {
						panic(err)
					}
					f.Close(p)
					sum.Add(p.Now() - start)
				}
			})
		}
		tb.Run()
		return sum.MeanMs()
	}
	sharedMs := run(true)
	splitMs := run(false)
	if sharedMs < 4*splitMs {
		t.Fatalf("shared=%.2fms split=%.2fms: splitting should win big", sharedMs, splitMs)
	}
	t.Logf("shared=%.2fms split=%.2fms speedup=%.1fx", sharedMs, splitMs, sharedMs/splitMs)
}

func TestDeterminism(t *testing.T) {
	elapsed := func() time.Duration {
		tb := cluster.New(42, 4, params.Default())
		tb.Env.Spawn("setup", func(p *sim.Proc) {
			if err := tb.Mounts[0].Mkdir(p, ctx, "/d", 0777); err != nil {
				panic(err)
			}
		})
		tb.Run()
		for n := 0; n < 4; n++ {
			createFiles(tb, n, 1, "/d", 100, fmt.Sprintf("n%d", n))
		}
		tb.Run()
		return tb.Env.Now()
	}
	a, b := elapsed(), elapsed()
	if a != b {
		t.Fatalf("same seed, different end times: %v vs %v", a, b)
	}
}

func TestTokenInvariantsAfterMixedWorkload(t *testing.T) {
	tb := cluster.New(7, 4, params.Default())
	tb.Env.Spawn("setup", func(p *sim.Proc) {
		if err := tb.Mounts[0].Mkdir(p, ctx, "/mix", 0777); err != nil {
			panic(err)
		}
	})
	tb.Run()
	for n := 0; n < 4; n++ {
		node := n
		tb.Env.Spawn("worker", func(p *sim.Proc) {
			m := tb.Mounts[node]
			cx := cluster.Ctx(node, 1)
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("/mix/f%d-%d", node, i)
				f, err := m.Create(p, cx, name, 0644)
				if err != nil {
					panic(err)
				}
				f.WriteAt(p, 0, 4096)
				f.Close(p)
				m.Stat(p, cx, name)
				m.Utime(p, cx, name)
				if i%3 == 0 {
					m.Unlink(p, cx, name)
				}
			}
		})
	}
	tb.Run()
	if err := tb.FS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The manager counts every grant; the clients count the ones they
	// paid a round trip for. The difference is the inline grants (one
	// per create), so token round trips are Acquires − InlineGrants.
	var paid int64
	for _, c := range tb.Clients {
		paid += c.Stats.TokenAcquires
	}
	ts := tb.FS.Tokens.Stats
	if ts.InlineGrants != 200 || ts.Acquires-ts.InlineGrants != paid {
		t.Fatalf("manager: %d acquires, %d inline (want 200, one per create); clients paid %d round trips, want the difference",
			ts.Acquires, ts.InlineGrants, paid)
	}
}

// TestFormatEqualsInstall holds Server.Format to the install it
// replaces: a MkdirAll of every directory from node 0, in one process,
// through the bare mount. Both must leave the same namespace (inode
// numbers, types, modes, owners, link counts and entries) and the same
// directory blocks, in the same recency order, in every server's
// buffer cache, with no inode block cached. Format must take no token.
func TestFormatEqualsInstall(t *testing.T) {
	def := params.Default().COFS
	for _, tc := range []struct {
		name  string
		place core.Placement
	}{
		{"hash-defaults", core.HashPlacement{Fanout: def.DirFanout, RandomSubdirs: def.RandomSubdirs}},
		{"hash-fanout-4096", core.HashPlacement{Fanout: 4096, RandomSubdirs: def.RandomSubdirs}},
		{"node-hash", core.NodeHashPlacement{Fanout: def.DirFanout}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirs := tc.place.InitDirs()
			installed := cluster.New(1, 1, params.Default())
			installed.Env.Spawn("install", func(p *sim.Proc) {
				for _, dir := range dirs {
					if err := installed.Mounts[0].MkdirAll(p, vfs.Ctx{UID: 0, Node: 0}, dir, 0700); err != nil {
						panic(err)
					}
				}
			})
			installed.Run()
			formatted := cluster.New(1, 1, params.Default())
			formatted.FS.Format(0, 0700, dirs)

			if st := formatted.Env.Stats(); st != (sim.Stats{}) || formatted.Env.Now() != 0 {
				t.Fatalf("Format ran simulated work: %+v at %v", st, formatted.Env.Now())
			}
			want, got := installed.FS.Namespace(), formatted.FS.Namespace()
			if len(got) != len(want) {
				t.Fatalf("formatted %d inodes, the install made %d", len(got), len(want))
			}
			for ino, w := range want {
				if g := got[ino]; !reflect.DeepEqual(g, w) {
					t.Fatalf("inode %d: formatted %+v, installed %+v", ino, g, w)
				}
			}
			gf, gd := formatted.FS.CountObjects()
			wf, wd := installed.FS.CountObjects()
			if gf != wf || gd != wd {
				t.Errorf("CountObjects: formatted (%d, %d), installed (%d, %d)", gf, gd, wf, wd)
			}
			for _, tb := range []*cluster.Testbed{installed, formatted} {
				if err := tb.FS.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			for h := range formatted.Servers {
				w, g := installed.FS.DirCacheKeys(h), formatted.FS.DirCacheKeys(h)
				if !reflect.DeepEqual(g, w) {
					t.Errorf("server %d dir cache: formatted %d blocks, installed %d, or in another order", h, len(g), len(w))
				}
				if n, m := formatted.FS.InodeCacheLen(h), installed.FS.InodeCacheLen(h); n != 0 || m != 0 {
					t.Errorf("server %d inode cache: formatted %d blocks, installed %d, want 0", h, n, m)
				}
			}
			// Every holder a token manager records came from a grant.
			if st := formatted.FS.Tokens.Stats; st != (lock.Stats{}) {
				t.Errorf("Format took tokens: %+v", st)
			}
		})
	}
}

// TestReaddirSurvivesConcurrentUnlink: a lister sleeps fetching each
// directory block, and names it collected before the sleep may be
// unlinked meanwhile. It must skip them — every entry it returns was
// live, with its real type — instead of dereferencing a dead inode.
func TestReaddirSurvivesConcurrentUnlink(t *testing.T) {
	const files = 512 // several directory blocks
	tb := cluster.New(9, 3, params.Default())
	ctx0 := cluster.Ctx(0, 1)
	tb.Env.Spawn("populate", func(p *sim.Proc) {
		if err := tb.Mounts[0].Mkdir(p, ctx0, "/d", 0777); err != nil {
			panic(err)
		}
		for i := 0; i < files; i++ {
			f, err := tb.Mounts[0].Create(p, ctx0, fmt.Sprintf("/d/f%03d", i), 0644)
			if err != nil {
				panic(err)
			}
			f.Close(p)
		}
	})
	tb.Run()
	tb.Env.Spawn("unlinker", func(p *sim.Proc) {
		for i := 0; i < files; i++ {
			if err := tb.Mounts[0].Unlink(p, ctx0, fmt.Sprintf("/d/f%03d", i)); err != nil {
				panic(err)
			}
		}
	})
	short := 0
	for n := 1; n <= 2; n++ {
		n := n
		tb.Env.Spawn("lister", func(p *sim.Proc) {
			for {
				ents, err := tb.Mounts[n].Readdir(p, cluster.Ctx(n, 1), "/d")
				if err != nil {
					panic(err)
				}
				for _, e := range ents {
					if e.Type != vfs.TypeRegular {
						t.Errorf("listing returned %q with type %v", e.Name, e.Type)
					}
				}
				if len(ents) == 0 {
					return
				}
				if len(ents) < files {
					short++
				}
			}
		})
	}
	tb.Run()
	if short == 0 {
		t.Fatal("no listing overlapped the unlink storm: the test exercised nothing")
	}
	if err := tb.FS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// dataRig runs fn as one process on a 2-node testbed over the default two
// file servers.
func dataRig(t *testing.T, fn func(tb *cluster.Testbed, p *sim.Proc)) {
	t.Helper()
	tb := cluster.New(1, 2, params.Default())
	tb.Env.Spawn("test", func(p *sim.Proc) { fn(tb, p) })
	tb.Run()
	if err := tb.FS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// writeFile writes [off, off+n) of path from the mount's node and closes.
func writeFile(t *testing.T, p *sim.Proc, m *vfs.Mount, path string, off, n int64) {
	t.Helper()
	f, err := m.Open(p, ctx, path, vfs.OpenWrite)
	if err == vfs.ErrNotExist {
		f, err = m.Create(p, ctx, path, 0644)
	}
	if err != nil {
		t.Fatalf("open %s for write: %v", path, err)
	}
	if got, err := f.WriteAt(p, off, n); err != nil || got != n {
		t.Fatalf("write %s: got (%d, %v), want %d", path, got, err, n)
	}
	f.Close(p)
}

// readFile reads [off, off+n) of path through m and returns the bytes
// returned, the bytes fetched from the servers and the processes spawned.
func readFile(t *testing.T, tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount, path string, off, n int64) (got, fetched, spawns int64) {
	t.Helper()
	f, err := m.Open(p, ctx, path, vfs.OpenRead)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	bytes, procs := tb.FS.Data.BytesRead, tb.Env.Stats().Spawns
	got, err = f.ReadAt(p, off, n)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	fetched, spawns = tb.FS.Data.BytesRead-bytes, tb.Env.Stats().Spawns-procs
	f.Close(p)
	return got, fetched, spawns
}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
)

// A read fetches the bytes the file has in the stripes it touches — a
// whole stripe only where the file fills one — and a one-server fetch
// runs on the reader while a two-server one spawns a helper per server.
func TestReadFetchesWhatTheFileHas(t *testing.T) {
	dataRig(t, func(tb *cluster.Testbed, p *sim.Proc) {
		m0, m1 := tb.Mounts[0], tb.Mounts[1]
		writeFile(t, p, m0, "/quarter", 0, 256*kib)
		writeFile(t, p, m0, "/full", 0, 2*mib)
		writeFile(t, p, m0, "/tail", 0, mib+256*kib)
		for _, tc := range []struct {
			what          string
			m             *vfs.Mount
			path          string
			off, n        int64
			got, fetched  int64
			helperSpawned int64
		}{
			{"writer's own re-read", m0, "/quarter", 0, 256 * kib, 256 * kib, 0, 0},
			{"cross-node read of a 256 KiB file", m1, "/quarter", 0, 256 * kib, 256 * kib, 256 * kib, 0},
			{"the same read again", m1, "/quarter", 0, 256 * kib, 256 * kib, 0, 0},
			{"asking past EOF of a short file", m1, "/quarter", 128 * kib, mib, 128 * kib, 0, 0},
			{"1.25 MiB file over two servers", m1, "/tail", 0, 2 * mib, mib + 256*kib, mib + 256*kib, 2},
			{"4 KiB in the middle of a full stripe", m1, "/full", 512 * kib, 4 * kib, 4 * kib, mib, 0},
			{"another 4 KiB of that stripe", m1, "/full", 64 * kib, 4 * kib, 4 * kib, 0, 0},
			{"read at EOF", m1, "/full", 2 * mib, 4 * kib, 0, 0, 0},
			{"read after EOF", m1, "/full", 3 * mib, 4 * kib, 0, 0, 0},
			{"n == 0", m1, "/full", mib, 0, 0, 0, 0},
			{"both stripes, one already held", m1, "/full", 0, 2 * mib, 2 * mib, mib, 0},
		} {
			got, fetched, spawns := readFile(t, tb, p, tc.m, tc.path, tc.off, tc.n)
			if got != tc.got || fetched != tc.fetched || spawns != tc.helperSpawned {
				t.Errorf("%s: returned %d, fetched %d, spawned %d; want %d, %d, %d",
					tc.what, got, fetched, spawns, tc.got, tc.fetched, tc.helperSpawned)
			}
		}
	})
}

// A stripe cached while the file was short does not satisfy a read of
// bytes appended afterwards. (Cross-node *overwrite* coherence of cached
// data is still not modelled — range tokens are per node — and a reader
// holding the old bytes of a rewritten range hits; out of scope here.)
func TestReadObservesGrowth(t *testing.T) {
	dataRig(t, func(tb *cluster.Testbed, p *sim.Proc) {
		m0, m1 := tb.Mounts[0], tb.Mounts[1]
		writeFile(t, p, m0, "/quarter", 0, 256*kib)
		if _, fetched, _ := readFile(t, tb, p, m1, "/quarter", 0, mib); fetched != 256*kib {
			t.Fatalf("first read fetched %d, want %d", fetched, 256*kib)
		}
		writeFile(t, p, m0, "/quarter", 256*kib, 256*kib)
		got, fetched, _ := readFile(t, tb, p, m1, "/quarter", 0, mib)
		if got != 512*kib || fetched != 512*kib {
			t.Fatalf("read after append: returned %d, fetched %d; want %d fetched anew", got, fetched, 512*kib)
		}
		if _, fetched, _ := readFile(t, tb, p, m1, "/quarter", 0, mib); fetched != 0 {
			t.Fatalf("third read fetched %d, want a pool hit", fetched)
		}
		// The appender wrote both halves itself: its pool holds the
		// high-water mark.
		if _, fetched, _ := readFile(t, tb, p, m0, "/quarter", 0, mib); fetched != 0 {
			t.Fatalf("appender's re-read fetched %d, want 0", fetched)
		}
	})
}

// Truncating drops the node's cached stripes, so the next read fetches
// what is left.
func TestTruncateSmallerRefetches(t *testing.T) {
	dataRig(t, func(tb *cluster.Testbed, p *sim.Proc) {
		m1 := tb.Mounts[1]
		writeFile(t, p, tb.Mounts[0], "/quarter", 0, 256*kib)
		readFile(t, tb, p, m1, "/quarter", 0, mib)
		if err := m1.Truncate(p, ctx, "/quarter", 128*kib); err != nil {
			t.Fatal(err)
		}
		got, fetched, _ := readFile(t, tb, p, m1, "/quarter", 0, mib)
		if got != 128*kib || fetched != 128*kib {
			t.Fatalf("read after truncate: returned %d, fetched %d; want %d both", got, fetched, 128*kib)
		}
	})
}

// Write-behind and close spawn a helper per server only when the flush
// spans servers; the bytes written back are the bytes dirtied.
func TestFlushSpawnsOnlyAcrossServers(t *testing.T) {
	dataRig(t, func(tb *cluster.Testbed, p *sim.Proc) {
		for _, tc := range []struct {
			path   string
			n      int64
			spawns int64
		}{
			{"/small", 256 * kib, 0},
			{"/stripe", mib, 0},
			{"/two", mib + 256*kib, 2},
		} {
			f, err := tb.Mounts[0].Create(p, ctx, tc.path, 0644)
			if err != nil {
				t.Fatal(err)
			}
			procs := tb.Env.Stats().Spawns
			f.WriteAt(p, 0, tc.n)
			if d := tb.Env.Stats().Spawns - procs; d != 0 {
				t.Errorf("%s: buffered write spawned %d processes", tc.path, d)
			}
			bytes, procs := tb.FS.Data.BytesWritten, tb.Env.Stats().Spawns
			f.Fsync(p)
			wrote, spawned := tb.FS.Data.BytesWritten-bytes, tb.Env.Stats().Spawns-procs
			if wrote != tc.n || spawned != tc.spawns {
				t.Errorf("%s: fsync wrote %d with %d helpers, want %d with %d", tc.path, wrote, spawned, tc.n, tc.spawns)
			}
			bytes, procs = tb.FS.Data.BytesWritten, tb.Env.Stats().Spawns
			f.Close(p)
			if wrote, spawned := tb.FS.Data.BytesWritten-bytes, tb.Env.Stats().Spawns-procs; wrote != 0 || spawned != 0 {
				t.Errorf("%s: close of a clean file wrote %d with %d helpers", tc.path, wrote, spawned)
			}
		}
	})
}

// skipUnderRace skips an allocation pin in a -race build, whose
// instrumentation allocates on its own.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates")
			}
		}
	}
}

// TestCreateReleaseUnlinkAllocs pins the model's per-file records: in a
// warm directory, a hundred creates, releases and unlinks allocate less
// than one object — inodes come from a slab, handles are stored by value
// and a new inode block's token comes from the token manager's slab.
func TestCreateReleaseUnlinkAllocs(t *testing.T) {
	skipUnderRace(t)
	single(t, func(tb *cluster.Testbed, p *sim.Proc, m *vfs.Mount) {
		c := tb.Clients[0]
		dir, err := c.Mkdir(p, ctx, c.Root(), "d", 0755)
		if err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			_, h, err := c.Create(p, ctx, dir.Ino, "f", 0644)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Release(p, ctx, h); err != nil {
				t.Fatal(err)
			}
			if err := c.Unlink(p, ctx, dir.Ino, "f"); err != nil {
				t.Fatal(err)
			}
		}
		hundred := func() {
			for i := 0; i < 100; i++ {
				cycle()
			}
		}
		for i := 0; i < 10; i++ {
			hundred()
		}
		if n := testing.AllocsPerRun(100, hundred); n != 0 {
			t.Fatalf("100 × create+release+unlink allocates %v, want 0", n)
		}
	})
}
