package core_test

import (
	"fmt"
	"path"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/sim"
	"cofs/internal/trace"
	"cofs/internal/vfs"
)

// These tests pin the read side of hot-standby replication: the
// standby serves nothing until it is promoted, so every read goes to
// the primary and is stale-free at ANY shipping delay — a mutation
// committed inside the shipping window is visible at once, although
// the standby has not seen it yet. Each test also checks that the
// standby did trail the reads it was racing and that, once the
// pipeline drains, it mirrors the primary.

// standbyReadsRig is the coherence battery's rig with a hot standby: a
// 3-node COFS, leases granted by the primary, a standby plane shipping
// with the given delay.
func standbyReadsRig(t *testing.T, seed int64, shards int, delay time.Duration) (*cluster.Testbed, *core.Deployment, *core.Standby) {
	t.Helper()
	tb, d := core.Rig(t, seed, 3, core.Shards(shards), core.Leases, core.NoKernelEntries)
	sb := core.DeployStandby(tb, d, delay)
	tb.Run()
	return tb, d, sb
}

// standbyMirrors checks that a drained standby has shipped everything
// and holds the primary's mappings, with its own invariants intact.
func standbyMirrors(t *testing.T, d *core.Deployment, sb *core.Standby) {
	t.Helper()
	if lag := sb.Lag(); lag != 0 {
		t.Fatalf("standby lag after drain = %d, want 0", lag)
	}
	var primary, standby []string
	d.Service.EachMapping(func(id vfs.Ino, upath string) {
		primary = append(primary, fmt.Sprintf("%d=%s", id, upath))
	})
	sb.Cluster.EachMapping(func(id vfs.Ino, upath string) {
		standby = append(standby, fmt.Sprintf("%d=%s", id, upath))
	})
	if fmt.Sprint(primary) != fmt.Sprint(standby) {
		t.Errorf("standby mappings diverge from primary:\n primary: %v\n standby: %v", primary, standby)
	}
	if err := sb.Cluster.CheckInvariants(); err != nil {
		t.Errorf("standby invariants: %v", err)
	}
}

// TestStandbyReadsCoherence runs the coherence battery's cross-node
// cases (crossNodeCases) at every shipping delay: node B mutates, node
// A must observe the mutation immediately, while the standby still
// trails it. A third node with a cold cache then reads the directory
// after the pipeline drained and must see what A sees, which the
// standby now mirrors.
func TestStandbyReadsCoherence(t *testing.T) {
	delays := []time.Duration{0, time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	for _, shards := range []int{1, 2} {
		for di, delay := range delays {
			t.Run(fmt.Sprintf("%dshards/delay-%s", shards, delay), func(t *testing.T) {
				lagged, row := 0, ""
				defer func() {
					if t.Failed() {
						t.Logf("in row %s", row)
					}
				}()
				for _, c := range crossNodeCases {
					if t.Failed() {
						break
					}
					row = c.name
					tb, d, sb := standbyReadsRig(t, 1000+int64(shards)*10+int64(di), shards, delay)
					before, beforeErr := c.cache(t, tb, d)
					// B mutates, and A verifies IN THE SAME DRAINED PHASE:
					// with delay > 0 the commit has not shipped when A
					// reads, so a read answered from the standby's copy
					// would be caught here.
					core.Drained(tb, "mutate-and-verify-inside-window", func(p *sim.Proc) {
						if err := c.mutate(p, d.Mounts[1]); err != nil {
							t.Errorf("%s: %v", c.name, err)
						}
						if sb.Lag() > 0 {
							lagged++
						}
						c.verify(t, p, d.Mounts[0], before, beforeErr)
					})
					// The pipeline has drained: the cold node's reads reach
					// the wire and must equal what A reads.
					dir := path.Dir(c.path)
					if warm, cold := core.View(t, tb, d, 0, dir), core.View(t, tb, d, 2, dir); cold != warm {
						t.Errorf("%s: cold read after drain diverges:\n A: %s\n C: %s", c.name, warm, cold)
					}
					standbyMirrors(t, d, sb)
					core.CheckPlane(t, tb, d, core.PlaneTables|core.PlaneCaches)
				}
				if delay >= 10*time.Millisecond && lagged == 0 {
					t.Errorf("the standby never trailed a mutation at delay %v: the window is vacuous", delay)
				}
			})
		}
	}
}

// TestStandbyReadsUnderConcurrency hammers a small shared namespace
// from all nodes with a standby shipping at several delays, then
// checks the lease protocol's core invariant at every drained round:
// each still-leased cache entry equals the authoritative table state.
// A stale read would poison exactly this check (the reading client
// would have acted on a value older than the row's last recalled
// lease). The drained standby must mirror the primary after the storm.
func TestStandbyReadsUnderConcurrency(t *testing.T) {
	for _, delay := range []time.Duration{time.Millisecond, 25 * time.Millisecond} {
		delay := delay
		t.Run(fmt.Sprintf("delay-%s", delay), func(t *testing.T) {
			tb, d, sb := standbyReadsRig(t, 2000+int64(delay/time.Millisecond), 2, delay)
			core.Play(t, tb, d, core.Mkdir(0, "/w", 0777), core.Mkdir(0, "/v", 0777))
			name := func(i int) string {
				if i%2 == 0 {
					return fmt.Sprintf("/w/n%d", i%4)
				}
				return fmt.Sprintf("/v/n%d", i%4)
			}
			for round := 0; round < 4; round++ {
				for node := 0; node < 3; node++ {
					for pid := 1; pid <= 3; pid++ {
						node, pid, round := node, pid, round
						tb.Env.Spawn("storm", func(p *sim.Proc) {
							m := d.Mounts[node]
							ctx := cluster.Ctx(node, pid)
							rng := tb.Env.RNG(fmt.Sprintf("sbstorm.%d.%d.%d", round, node, pid))
							for i := 0; i < 48; i++ {
								switch rng.Intn(10) {
								case 0:
									if f, err := m.Create(p, ctx, name(i), 0644); err == nil {
										f.Close(p)
									}
								case 1:
									m.Unlink(p, ctx, name(i))
								case 2:
									m.Chmod(p, ctx, name(i), 0600+uint32(node))
								case 3:
									m.Rename(p, ctx, name(i), name(i+1))
								case 4:
									m.Readdir(p, ctx, "/w")
								default:
									m.Stat(p, ctx, name(i))
								}
							}
						})
					}
				}
				tb.Run()
				if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if err := d.Service.CheckInvariants(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			var shipped int64
			for _, r := range sb.Replicas {
				shipped += r.Records
			}
			if shipped == 0 {
				t.Fatal("the storm shipped nothing to the standby: test is vacuous")
			}
			standbyMirrors(t, d, sb)
		})
	}
}

// TestStandbyReadsAcrossPrimaryCrash replays the crash cases: a primary
// crash truncates its WAL to the flushed prefix (the standby may even
// be AHEAD of what the primary recovered), listers racing the crash
// see whole listings or a plane that is down, never a partial one, and
// once the resync rebuild drains the standby mirrors the recovered —
// possibly rolled-back — state, never the pre-crash one.
func TestStandbyReadsAcrossPrimaryCrash(t *testing.T) {
	tb, d, sb := standbyReadsRig(t, 3000, 2, 5*time.Millisecond)
	core.Play(t, tb, d, core.Dir(0, "/out", 0777, 30, "f%02d", 1024)...)

	// Listers on two nodes race the crash and the replay: a listing may
	// find the plane down (a crashed shard answers ErrNotExist until its
	// log is replayed), but one that returns entries must return all 30,
	// with attributes — the tables vanish and reappear between listings,
	// never under one.
	out := core.Ino(t, tb, d, "/out")
	recovered := false
	whole, down := 0, 0
	for k := 0; k < 8; k++ {
		n := 1 + k%2
		// Staggered, so some request reaches a shard inside the (sub-
		// millisecond) window between its crash and its replay.
		tb.Env.SpawnAfter("lister", time.Duration(k)*130*time.Microsecond, func(p *sim.Proc) {
			for !recovered {
				if listWhole(t, p, d, n, out, 30, true) {
					whole++
				} else {
					down++
				}
			}
		})
	}
	tb.Env.SpawnAfter("crash-recover", 3*time.Millisecond, func(p *sim.Proc) {
		d.Service.Crash()
		d.Service.Recover(p)
		d.Service.AdoptIDCounter()
		recovered = true
	})
	tb.Run()
	if whole == 0 || down == 0 {
		t.Fatalf("listers saw the plane up %d times and down %d times: they did not race the crash", whole, down)
	}

	// The namespace the recovered primary serves is the oracle; the
	// cold-cache node must read exactly it.
	oracle := core.View(t, tb, d, 0, "/out")
	if read := core.View(t, tb, d, 2, "/out"); read != oracle {
		t.Errorf("recovered namespace diverges:\n oracle: %s\n read:   %s", oracle, read)
	}
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	standbyMirrors(t, d, sb)
}

// TestStandbyReadsAcrossReshard replays the migration case: readers
// race a 2->4 grow and every read must be correct whether it lands
// before, during or after the move; the standby grows shard-for-shard
// with the primary and, once the plane settles, mirrors it at the new
// shape.
func TestStandbyReadsAcrossReshard(t *testing.T) {
	tb, d, sb := standbyReadsRig(t, 4000, 2, time.Millisecond)
	core.Play(t, tb, d, core.Dir(0, "/out", 0777, 40, "f%02d", 0)...)
	C := d.Mounts[2]
	for pid := 1; pid <= 3; pid++ {
		pid := pid
		tb.Env.Spawn("reader", func(p *sim.Proc) {
			for i := 0; i < 60; i++ {
				name := fmt.Sprintf("/out/f%02d", i%40)
				attr, err := C.Stat(p, cluster.Ctx(2, pid), name)
				if err != nil || attr.Mode != 0644 {
					t.Errorf("read %s during reshard: %+v, %v", name, attr, err)
					return
				}
			}
		})
	}
	tb.Env.Spawn("grow", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, 4); err != nil {
			t.Errorf("reshard: %v", err)
		}
	})
	tb.Run()

	if got := len(sb.Replicas); got != 4 {
		t.Fatalf("standby has %d replicas after grow, want 4", got)
	}
	names := make([]string, 40)
	for i := range names {
		names[i] = fmt.Sprintf("/out/f%02d", i)
	}
	for i, attr := range core.Attrs(t, tb, d, 1, names...) {
		if attr.Mode != 0644 {
			t.Errorf("read %s after settle: %+v", names[i], attr)
		}
	}
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	standbyMirrors(t, d, sb)
}

// TestStandbyPromoteWhileServingReads replays the failover case: the
// primary plane dies while clients are reading; the promoted plane
// must serve the shipped namespace, and no listing across the switch
// is ever partial.
func TestStandbyPromoteWhileServingReads(t *testing.T) {
	tb, d, sb := standbyReadsRig(t, 5000, 2, time.Millisecond)
	core.Play(t, tb, d, core.Dir(0, "/out", 0777, 20, "f%02d", 0)...)
	reads := make([]trace.Op, 20)
	for i := range reads {
		reads[i] = core.Stat(2, fmt.Sprintf("/out/f%02d", i))
	}
	core.Play(t, tb, d, reads...)
	standbyMirrors(t, d, sb)

	// The failover happens under listers: requests in flight across the
	// switch finish on the dead plane (whole if they already took their
	// snapshot, ErrNotExist if they arrive after the crash), later ones
	// on the promoted plane — and no listing is ever partial.
	out := core.Ino(t, tb, d, "/out")
	promoted := false
	before, after := 0, 0
	for _, n := range []int{0, 1} {
		n := n
		tb.Env.Spawn("lister", func(p *sim.Proc) {
			for i := 0; i < 12; i++ {
				if listWhole(t, p, d, n, out, 20, true) {
					if promoted {
						after++
					} else {
						before++
					}
				}
			}
		})
	}
	tb.Env.SpawnAfter("failover", 4*time.Millisecond, func(p *sim.Proc) {
		d.Service.Crash()
		if lost := sb.Promote(d); lost != 0 {
			t.Logf("failover lost %d unshipped records (allowed)", lost)
		}
		promoted = true
	})
	tb.Run()
	if before == 0 || after == 0 {
		t.Fatalf("%d whole listings before the failover, %d after: the listers did not straddle it", before, after)
	}
	core.Play(t, tb, d, append(reads, core.Create(2, "/out/post", 0644))...)
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
