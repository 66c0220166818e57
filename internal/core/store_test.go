package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/experiments"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/store"
	"cofs/internal/vfs"
)

// These tests pin the store-provider seam (internal/store,
// docs/backends.md) the way the other deployment knobs are pinned:
// the default backend charges exactly what the pre-registry build
// charged, misconfiguration fails fast, and the second backend
// actually deploys and serves.

// storeWorkload is the mixed mutate/stat/readdir workload the
// cost-identity comparisons run (same shape as the dormant-reshard
// pin, so a drift in either knob shows up the same way).
func storeWorkload(t *testing.T, backend string, shards int) (time.Duration, int64) {
	t.Helper()
	cfg := params.Default()
	cfg.COFS.MetadataShards = shards
	cfg.COFS.MetadataStore = backend
	tb := cluster.New(42, 2, cfg)
	d := core.Deploy(tb, nil)
	tb.Run()
	ctx := cluster.Ctx(0, 1)
	step(tb, "workload", func(p *sim.Proc) {
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

// TestStoreDefaultCostIdentical pins that deploying through the
// provider registry is free: naming "mdb" explicitly must land on
// exactly the same virtual clock and message count as the default
// empty knob — at one shard and at four.
func TestStoreDefaultCostIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			defNow, defMsgs := storeWorkload(t, "", shards)
			mdbNow, mdbMsgs := storeWorkload(t, "mdb", shards)
			if defNow != mdbNow || defMsgs != mdbMsgs {
				t.Fatalf("registry routing is not free: default (%v, %d msgs) vs mdb (%v, %d msgs)",
					defNow, defMsgs, mdbNow, mdbMsgs)
			}
		})
	}
}

// TestStoreAbsoluteCostPin holds the default backend to the absolute
// figure recorded in bench/baseline.json, not just to a sibling run:
// the BenchmarkMetadataCache nocache-1shards storm (seed 1). The pin
// was 0.525928 from the provider registry's introduction until the
// storm's 24 readdirs of a 256-entry directory became snapshot reads
// (mdb.DB.View): each used to hold the shard's transaction mutex for
// 514 per-row sleeps, stalling every utime behind it), and 0.454666
// from then until write transactions left that mutex too (the storm's
// utimes now overlap each other; the stats beside them were redrawn),
// and 0.455145 until those listings stopped carrying attributes nobody
// cached (names-only: 256 fewer row reads and 24 KiB less on the wire
// each, so the stats queued behind them wait less).
// If this moves, a change altered the simulation, not just the wiring.
func TestStoreAbsoluteCostPin(t *testing.T) {
	const want = 0.442409 // bench/baseline.json metadata-cache/nocache-1shards
	sum, _ := experiments.ClientCacheStorm(1, params.Default())
	if sum.N() != 6144 {
		t.Fatalf("storm measured %d stats, baseline measured 6144", sum.N())
	}
	if sum.MeanMs() != want {
		t.Fatalf("default store drifted from the recorded baseline: %v vms/op, want %v", sum.MeanMs(), want)
	}
}

// TestStoreMDLSServes deploys the log-structured backend and runs the
// same workload: it must serve correctly (invariants hold), report its
// name, and — being structurally different — not match the default's
// clock.
func TestStoreMDLSServes(t *testing.T) {
	mdbNow, _ := storeWorkload(t, "mdb", 2)
	mdlsNow, _ := storeWorkload(t, "mdls", 2)
	if mdlsNow == mdbNow {
		t.Fatalf("mdls has the same cost profile as mdb (%v): the second backend is not a second point", mdlsNow)
	}
}

// TestStoreNameReported pins the header plumbing the tools print.
func TestStoreNameReported(t *testing.T) {
	for _, backend := range []struct{ knob, want string }{
		{"", "mdb"}, {"mdb", "mdb"}, {"mdls", "mdls"},
	} {
		cfg := params.Default()
		cfg.COFS.MetadataStore = backend.knob
		tb := cluster.New(7, 1, cfg)
		d := core.Deploy(tb, nil)
		tb.Run()
		if got := d.Service.StoreName(); got != backend.want {
			t.Fatalf("StoreName with knob %q = %q, want %q", backend.knob, got, backend.want)
		}
	}
}

// TestStoreUnknownFailsFast: a typoed backend name must refuse to
// deploy, and the error must list what is registered.
func TestStoreUnknownFailsFast(t *testing.T) {
	if _, err := store.Open("bogus", nil, nil, store.Options{}); err == nil {
		t.Fatal("store.Open(bogus) succeeded")
	} else {
		for _, name := range []string{"mdb", "mdls", "bogus"} {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not mention %q", err, name)
			}
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deploying an unknown backend did not fail")
		}
		if !strings.Contains(fmt.Sprint(r), "registered") {
			t.Fatalf("deploy failure %v does not list registered backends", r)
		}
	}()
	cfg := params.Default()
	cfg.COFS.MetadataStore = "bogus"
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
	tb := cluster.New(21, 3, params.Default())
	d := core.Deploy(tb, nil)
	tb.Run()
	svc := d.Service
	step(tb, "mkdir", func(p *sim.Proc) {
		if err := d.Mounts[0].Mkdir(p, cluster.Ctx(0, 1), "/big", 0777); err != nil {
			t.Error(err)
		}
	})
	big := inoOf(t, tb, d, "/big")
	step(tb, "build", func(p *sim.Proc) {
		ctx := cluster.Ctx(0, 1)
		for i := 0; i < entries; i++ {
			if _, _, err := svc.Create(p, d.FSs[0].Session(), ctx, big, fmt.Sprintf("f%03d", i), vfs.TypeRegular, 0644, "", ""); err != nil {
				t.Error(err)
				return
			}
		}
	})
	createFrom := func(p *sim.Proc, node int, name string) time.Duration {
		start := p.Now()
		if _, _, err := svc.Create(p, d.FSs[node].Session(), cluster.Ctx(node, 1), core.RootID, name, vfs.TypeRegular, 0644, "", ""); err != nil {
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
	step(tb, "alone", func(p *sim.Proc) {
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
	if wait := svc.Shards()[0].DB.TxWait(); wait != 0 {
		t.Errorf("transactions waited %v on the shard's mutex in a run that never froze it", wait)
	}
	if got := d.Counters().Get("mdb.views"); got != 4 {
		t.Errorf("mdb.views = %d, want 4 (one per readdir)", got)
	}
}

// TestCreateStormNeverWaitsOnTheTransactionMutex is the regression
// guard on the counter that sized the write path's old serialization
// (mdb.tx_wait_ms read 238 and 712 in the fresh reshard-under-load
// records): a fresh 4-shard plane under an 8-rank mdtest create storm —
// private trees, so the mkdirs run two-phase and every shard commits —
// must not make a single transaction wait. The mutex is only the
// Freeze/Thaw gate, and nothing froze this plane.
func TestCreateStormNeverWaitsOnTheTransactionMutex(t *testing.T) {
	cfg := params.Default()
	cfg.COFS.MetadataShards = 4
	tb := cluster.New(1, 4, cfg)
	d := core.Deploy(tb, nil)
	res := bench.MDTest(bench.Target{Env: tb.Env, Mounts: d.Mounts, Ctx: cluster.Ctx}, bench.MDTestConfig{
		Nodes: 4, ProcsPerNode: 2, Depth: 1, Branch: 4, FilesPerRank: 64,
	})
	if res.TotalOps() == 0 {
		t.Fatal("the storm ran no operations")
	}
	for i, s := range d.Service.Shards() {
		if s.DB.Transactions == 0 {
			t.Errorf("shard %d committed nothing: the storm no longer loads every shard", i)
		}
		if wait := s.DB.TxWait(); wait != 0 {
			t.Errorf("shard %d: transactions waited %v on the mutex of a plane nobody froze", i, wait)
		}
	}
	if got := d.Counters().Get("mdb.tx_wait_ms"); got != 0 {
		t.Errorf("mdb.tx_wait_ms = %d, want 0", got)
	}
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
