package pfs_test

import (
	"fmt"
	"testing"

	"cofs/internal/cluster"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
	"cofs/internal/vfs/conformance"
)

// TestPFSMemFSOracleProperty runs the MemFS oracle on the GPFS-like
// file system: random operation sequences must give the same results
// as on the plain-POSIX reference, whatever the timing machinery
// underneath (conformance.Oracle).
func TestPFSMemFSOracleProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30}
	t.Log(conformance.Oracle(t, conformance.Provider{
		Name:         "pfs",
		Capabilities: conformance.Capabilities{Hardlinks: true},
		New: func(t *testing.T) *conformance.System {
			tb := cluster.New(1, 1, params.Default())
			return &conformance.System{Env: tb.Env, Mount: tb.Mounts[0], User: ctx, Check: tb.FS.CheckInvariants}
		},
	}, seeds))
}

// TestMultiNodeChaos runs randomized mixed workloads from four nodes
// concurrently and checks the global invariants afterwards: namespace
// referential integrity, token exclusivity, and determinism of the whole
// run.
func TestMultiNodeChaos(t *testing.T) {
	run := func(seed int64) (int64, string) {
		tb := cluster.New(seed, 4, params.Default())
		tb.Env.Spawn("setup", func(p *sim.Proc) {
			if err := tb.Mounts[0].Mkdir(p, ctx, "/chaos", 0777); err != nil {
				panic(err)
			}
		})
		tb.Run()
		for n := 0; n < 4; n++ {
			node := n
			tb.Env.Spawn("chaos", func(p *sim.Proc) {
				m := tb.Mounts[node]
				cx := cluster.Ctx(node, 1)
				rng := tb.Env.RNG(fmt.Sprintf("chaos.%d", node))
				for i := 0; i < 120; i++ {
					target := fmt.Sprintf("/chaos/f%d", rng.Intn(40))
					switch rng.Intn(6) {
					case 0:
						if f, err := m.Create(p, cx, target, 0644); err == nil {
							f.WriteAt(p, 0, int64(rng.Intn(1<<16)))
							f.Close(p)
						}
					case 1:
						m.Unlink(p, cx, target)
					case 2:
						m.Stat(p, cx, target)
					case 3:
						m.Utime(p, cx, target)
					case 4:
						if f, err := m.Open(p, cx, target, vfs.OpenRead); err == nil {
							f.ReadAt(p, 0, 4096)
							f.Close(p)
						}
					case 5:
						m.Rename(p, cx, target, fmt.Sprintf("/chaos/g%d", rng.Intn(40)))
					}
				}
			})
		}
		tb.Run()
		if err := tb.FS.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		ents := ""
		tb.Env.Spawn("list", func(p *sim.Proc) {
			ls, err := tb.Mounts[0].Readdir(p, ctx, "/chaos")
			if err != nil {
				panic(err)
			}
			for _, e := range ls {
				ents += e.Name + ","
			}
		})
		tb.Run()
		return int64(tb.Env.Now()), ents
	}
	t1, e1 := run(99)
	t2, e2 := run(99)
	if t1 != t2 || e1 != e2 {
		t.Fatalf("chaos run not deterministic: %d/%d, %q vs %q", t1, t2, e1, e2)
	}
	t3, _ := run(100)
	if t3 == t1 {
		t.Fatal("different seeds produced identical end times (suspicious)")
	}
}

// TestConcurrentSameNameCreates has every node race to create the same
// file name; exactly one must win per round, and losers must see a
// consistent error.
func TestConcurrentSameNameCreates(t *testing.T) {
	tb := cluster.New(5, 4, params.Default())
	wins := 0
	var lastErr error
	for round := 0; round < 5; round++ {
		rnd := round
		for n := 0; n < 4; n++ {
			node := n
			tb.Env.Spawn("racer", func(p *sim.Proc) {
				m := tb.Mounts[node]
				cx := cluster.Ctx(node, 1)
				// Use the raw Filesystem interface: Mount.Create maps
				// ErrExist to open+truncate (POSIX), which would hide
				// the race.
				dir, name, err := m.WalkParent(p, cx, fmt.Sprintf("/race%d", rnd))
				if err != nil {
					panic(err)
				}
				_, h, err := m.FS().Create(p, cx, dir, name, 0644)
				if err == nil {
					wins++
					m.FS().Release(p, cx, h)
				} else {
					lastErr = err
				}
			})
		}
		tb.Run()
	}
	if wins != 5 {
		t.Fatalf("wins=%d, want exactly 1 per round", wins)
	}
	if lastErr != vfs.ErrExist {
		t.Fatalf("losers saw %v, want ErrExist", lastErr)
	}
	if err := tb.FS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReaddirConsistentUnderConcurrentCreates verifies a reader always
// sees a directory state whose entries all resolve (no torn entries)
// while another node is creating.
func TestReaddirConsistentUnderConcurrentCreates(t *testing.T) {
	tb := cluster.New(3, 2, params.Default())
	tb.Env.Spawn("setup", func(p *sim.Proc) {
		if err := tb.Mounts[0].Mkdir(p, ctx, "/live", 0777); err != nil {
			panic(err)
		}
	})
	tb.Run()
	tb.Env.Spawn("creator", func(p *sim.Proc) {
		m := tb.Mounts[0]
		for i := 0; i < 60; i++ {
			f, err := m.Create(p, ctx, fmt.Sprintf("/live/f%03d", i), 0644)
			if err != nil {
				panic(err)
			}
			f.Close(p)
		}
	})
	tb.Env.Spawn("reader", func(p *sim.Proc) {
		m := tb.Mounts[1]
		cx := cluster.Ctx(1, 1)
		prev := 0
		for i := 0; i < 10; i++ {
			ents, err := m.Readdir(p, cx, "/live")
			if err != nil {
				panic(err)
			}
			if len(ents) < prev {
				t.Errorf("directory shrank under creates: %d -> %d", prev, len(ents))
			}
			prev = len(ents)
			for _, e := range ents {
				if _, err := m.Stat(p, cx, "/live/"+e.Name); err != nil {
					t.Errorf("torn entry %s: %v", e.Name, err)
				}
			}
		}
	})
	tb.Run()
	if err := tb.FS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
