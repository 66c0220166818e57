package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// These tests pin the shard store as the service uses it: mdb is the
// one store a deployment can name, naming it costs nothing, and neither
// a listing nor a create ever waits for another operation on the same
// shard's store.

// storeWorkload is the mixed mutate/stat/readdir workload the
// cost-identity comparison and the dormant-reshard pin
// (TestReshardDormantCostIdentical) run.
func storeWorkload(t *testing.T, store string, shards int) (time.Duration, int64) {
	t.Helper()
	tb, d := core.Rig(t, 42, 2, core.Shards(shards), func(c *params.Config) { c.COFS.MetadataStore = store })
	ctx := cluster.Ctx(0, 1)
	core.Drained(tb, "workload", func(p *sim.Proc) {
		m := d.Mounts[0]
		for i := 0; i < 8; i++ {
			if err := m.MkdirAll(p, ctx, fmt.Sprintf("/t/d%d", i), 0777); err != nil {
				t.Fatal(err)
			}
			f, err := m.Create(p, ctx, fmt.Sprintf("/t/d%d/f", i), 0644)
			if err != nil {
				t.Fatal(err)
			}
			f.Close(p)
			m.Stat(p, ctx, fmt.Sprintf("/t/d%d/f", i))
		}
		if err := m.Rename(p, ctx, "/t/d0/f", "/t/d1/g"); err != nil {
			t.Fatal(err)
		}
		if err := m.Unlink(p, ctx, "/t/d1/g"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Readdir(p, ctx, "/t"); err != nil {
			t.Fatal(err)
		}
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	return tb.Env.Now(), tb.Net.Messages
}

// TestStoreDefaultCostIdentical pins that the two accepted spellings of
// the store knob are one deployment: naming "mdb" explicitly must land
// on exactly the same virtual clock and message count as the default
// empty knob — at one shard and at four.
func TestStoreDefaultCostIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			defNow, defMsgs := storeWorkload(t, "", shards)
			mdbNow, mdbMsgs := storeWorkload(t, "mdb", shards)
			if defNow != mdbNow || defMsgs != mdbMsgs {
				t.Fatalf("naming the store is not free: default (%v, %d msgs) vs mdb (%v, %d msgs)",
					defNow, defMsgs, mdbNow, mdbMsgs)
			}
		})
	}
}

// TestStoreUnknownFailsFast: naming any store other than mdb — the
// retired log-structured backend's name included — must refuse to
// deploy, and the error must name the store that exists.
func TestStoreUnknownFailsFast(t *testing.T) {
	const retired = "mdls"
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("deploying with MetadataStore %q did not fail", retired)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, `"mdb"`) || !strings.Contains(msg, retired) {
			t.Fatalf("deploy failure %q does not name both %q and mdb", msg, retired)
		}
	}()
	cfg := params.Default()
	cfg.COFS.MetadataStore = retired
	tb := cluster.New(7, 1, cfg)
	core.Deploy(tb, nil)
}

// TestReaddirOffTheTransactionMutex pins the non-blocking half of the
// snapshot-read contract at the service level, in virtual time: a
// create issued while another node's 512-entry readdir is being served
// by the same shard completes in exactly its uncontended latency (the
// scan used to hold the shard's transaction mutex for its 1026 per-row
// sleeps, ~22 ms), and two concurrent readdirs overlap instead of
// running back to back. The writers twin: two creates of different
// names in one directory, issued at the same instant, both complete in
// the uncontended latency give or take the requests' turn on the
// server's link (a few us, under one table operation) — a create's six
// table operations used to be six sleeps under that mutex, so the
// second finished six operations late.
func TestReaddirOffTheTransactionMutex(t *testing.T) {
	const entries = 512
	tb, d := core.Rig(t, 21, 3)
	svc := d.Service
	core.Play(t, tb, d, core.Mkdir(0, "/big", 0777))
	big := core.Ino(t, tb, d, "/big")
	core.Drained(tb, "build", func(p *sim.Proc) {
		ctx := cluster.Ctx(0, 1)
		for i := 0; i < entries; i++ {
			if _, err := svc.Create(p, d.FSs[0].Session(), ctx, big, fmt.Sprintf("f%03d", i), vfs.TypeRegular, 0644, "", ""); err != nil {
				t.Error(err)
				return
			}
		}
	})
	createFrom := func(p *sim.Proc, node int, name string) time.Duration {
		start := p.Now()
		if _, err := svc.Create(p, d.FSs[node].Session(), cluster.Ctx(node, 1), core.RootID, name, vfs.TypeRegular, 0644, "", ""); err != nil {
			t.Error(err)
		}
		return p.Now() - start
	}
	list := func(p *sim.Proc, node int) time.Duration {
		start := p.Now()
		listWhole(t, p, d, node, big, entries, false)
		return p.Now() - start
	}
	var createAlone, listAlone time.Duration
	core.Drained(tb, "alone", func(p *sim.Proc) {
		createAlone = createFrom(p, 2, "alone")
		listAlone = list(p, 1)
	})

	var createBeside time.Duration
	tb.Env.Spawn("lister", func(p *sim.Proc) { list(p, 1) })
	tb.Env.SpawnAfter("creator", listAlone/4, func(p *sim.Proc) { createBeside = createFrom(p, 2, "beside") })
	tb.Run()
	if createBeside != createAlone {
		t.Errorf("create beside a %d-entry readdir took %v, alone %v", entries, createBeside, createAlone)
	}

	start := tb.Env.Now()
	tb.Env.Spawn("lister1", func(p *sim.Proc) { list(p, 1) })
	tb.Env.Spawn("lister2", func(p *sim.Proc) { list(p, 2) })
	tb.Run()
	if both := tb.Env.Now() - start; both > listAlone*5/4 {
		t.Errorf("two concurrent %d-entry readdirs took %v, one takes %v: they did not overlap", entries, both, listAlone)
	}

	var twins [2]time.Duration
	for i := range twins {
		tb.Env.Spawn("twin", func(p *sim.Proc) { twins[i] = createFrom(p, 1+i, fmt.Sprintf("twin%d", i)) })
	}
	tb.Run()
	for i, took := range twins {
		if took < createAlone || took-createAlone >= params.Default().COFS.DBOpTime {
			t.Errorf("create %d of two issued together took %v, alone %v", i, took, createAlone)
		}
	}
	if got := d.Counters().Get("mdb.views"); got != 4 {
		t.Errorf("mdb.views = %d, want 4 (one per readdir)", got)
	}
}
