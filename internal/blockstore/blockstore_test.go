package blockstore

import (
	"testing"
	"time"

	"cofs/internal/disk"
	"cofs/internal/netsim"
	"cofs/internal/params"
	"cofs/internal/sim"
)

func rig(servers int) (*sim.Env, *netsim.Net, *Store, *netsim.Host) {
	env := sim.NewEnv(1)
	cfg := params.Default()
	net := netsim.New(env, cfg.Network)
	var hosts []*netsim.Host
	var disks []*disk.Disk
	for i := 0; i < servers; i++ {
		hosts = append(hosts, net.AddHost("srv", 8, 0))
		disks = append(disks, disk.New(env, "d", cfg.Disk))
	}
	client := net.AddHost("client", 2, 0)
	return env, net, New(net, hosts, disks, 1<<20), client
}

// stripes lists the stripes covering [off, off+n) of file ino with a
// full stripe size for each.
func stripes(s *Store, ino uint64, off, n int64) ([]Stripe, []int64) {
	var sts []Stripe
	var sizes []int64
	for idx, end := s.StripeRange(off, n); idx < end; idx++ {
		sts = append(sts, Stripe{Ino: ino, Idx: idx})
		sizes = append(sizes, s.StripeSize())
	}
	return sts, sizes
}

func TestStripeRange(t *testing.T) {
	_, _, s, _ := rig(2)
	for _, tc := range []struct{ off, n, first, end int64 }{
		{0, 4 << 20, 0, 4},
		{1 << 19, 1 << 20, 0, 2}, // offset straddling a boundary
		{1 << 20, 1, 1, 2},
		{(1 << 20) - 1, 2, 0, 2},
		{3 << 20, 256 << 10, 3, 4}, // partial tail
		{0, 0, 0, 0},
		{5 << 20, -1, 0, 0},
	} {
		if first, end := s.StripeRange(tc.off, tc.n); first != tc.first || end != tc.end {
			t.Errorf("StripeRange(%d, %d) = [%d, %d), want [%d, %d)", tc.off, tc.n, first, end, tc.first, tc.end)
		}
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	_, _, s, _ := rig(2)
	counts := map[int]int{}
	sts, _ := stripes(s, 3, 0, 16<<20)
	for _, st := range sts {
		counts[s.serverOf(st)]++
	}
	if counts[0] != 8 || counts[1] != 8 {
		t.Fatalf("distribution %v, want 8/8", counts)
	}
}

func TestParallelServersFasterThanOne(t *testing.T) {
	elapsed := func(servers int) time.Duration {
		env, _, s, client := rig(servers)
		env.Spawn("xfer", func(p *sim.Proc) {
			sts, sizes := stripes(s, 1, 0, 32<<20)
			s.Write(p, client, sts, sizes)
		})
		env.MustRun()
		return env.Now()
	}
	one, two := elapsed(1), elapsed(2)
	if two >= one {
		t.Fatalf("2 servers (%v) not faster than 1 (%v)", two, one)
	}
}

func TestByteAccounting(t *testing.T) {
	env, _, s, client := rig(2)
	env.Spawn("xfer", func(p *sim.Proc) {
		sts, sizes := stripes(s, 1, 0, 2<<20)
		s.Write(p, client, sts, sizes)
		s.Read(p, client, sts[:1], sizes[:1])
		// Partial sizes are counted as given, on either path: a
		// stripe and a quarter over two servers, a quarter over one.
		s.Write(p, client, sts, []int64{1 << 20, 256 << 10})
		s.Read(p, client, sts[1:], []int64{256 << 10})
		s.Read(p, client, sts, []int64{4 << 10, 1})
	})
	env.MustRun()
	wantW, wantR := int64(2<<20+1<<20+256<<10), int64(1<<20+256<<10+4<<10+1)
	if s.BytesWritten != wantW || s.BytesRead != wantR {
		t.Fatalf("accounting: wrote %d read %d, want %d / %d", s.BytesWritten, s.BytesRead, wantW, wantR)
	}
}

// A transfer whose stripes share a server has one queue and nothing to
// overlap: it runs on the caller. Only a fan-out spawns helpers, one per
// server. Either way each stripe is one disk access.
func TestTransferSpawnsOnlyToOverlap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		idx    []int64
		spawns int64
	}{
		{"one stripe", []int64{0}, 0},
		{"two stripes, one server", []int64{0, 2}, 0},
		{"two stripes, two servers", []int64{0, 1}, 2},
		{"four stripes, two servers", []int64{0, 1, 2, 3}, 2},
	} {
		for _, write := range []bool{false, true} {
			env, _, s, client := rig(2)
			var spawned int64
			env.Spawn("xfer", func(p *sim.Proc) {
				var sts []Stripe
				var sizes []int64
				for _, i := range tc.idx {
					sts = append(sts, Stripe{Ino: 2, Idx: i})
					sizes = append(sizes, 256<<10)
				}
				before := env.Stats().Spawns
				if write {
					s.Write(p, client, sts, sizes)
				} else {
					s.Read(p, client, sts, sizes)
				}
				spawned = env.Stats().Spawns - before
			})
			env.MustRun()
			if spawned != tc.spawns {
				t.Errorf("%s (write=%v): spawned %d processes, want %d", tc.name, write, spawned, tc.spawns)
			}
			var reads, writes int64
			for _, d := range s.disks {
				reads, writes = reads+d.Reads, writes+d.Writes
			}
			if n := int64(len(tc.idx)); reads+writes != n || (write && reads != 0) || (!write && writes != 0) {
				t.Errorf("%s (write=%v): %d disk reads and %d writes, want %d accesses", tc.name, write, reads, writes, n)
			}
		}
	}
}

// Running on the caller costs exactly the virtual time the helper process
// took (the figure is the one the spawning version gave): 2.5 ms of disk
// positioning + 256 KiB at 60 MB/s + (256 KiB + 96 B header) at 110 MB/s
// + two 55 us hops, in either direction.
func TestOneServerTransferTime(t *testing.T) {
	const want = 9363066 * time.Nanosecond
	for _, write := range []bool{false, true} {
		env, _, s, client := rig(2)
		var took time.Duration
		env.Spawn("xfer", func(p *sim.Proc) {
			start := p.Now()
			if write {
				s.Write(p, client, []Stripe{{Ino: 2, Idx: 0}}, []int64{256 << 10})
			} else {
				s.Read(p, client, []Stripe{{Ino: 2, Idx: 0}}, []int64{256 << 10})
			}
			took = p.Now() - start
		})
		env.MustRun()
		if took != want {
			t.Errorf("write=%v: 256 KiB one-server transfer took %v, want %v", write, took, want)
		}
	}
}

func TestSequentialStripesSequentialOnDisk(t *testing.T) {
	_, _, s, _ := rig(2)
	// Stripes 0 and 2 of one file land on server 0 at adjacent
	// positions, so streaming stays near-sequential per disk.
	a := s.diskPos(Stripe{Ino: 5, Idx: 0})
	b := s.diskPos(Stripe{Ino: 5, Idx: 2})
	if b-a != 2 {
		t.Fatalf("positions not adjacent-ish: %d, %d", a, b)
	}
	// Different files are far apart.
	c := s.diskPos(Stripe{Ino: 6, Idx: 0})
	if c-a < 1<<19 {
		t.Fatalf("files too close on disk: %d vs %d", a, c)
	}
}

func TestMismatchedSizesPanics(t *testing.T) {
	env, _, s, client := rig(1)
	panicked := false
	env.Spawn("bad", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		s.Write(p, client, []Stripe{{Ino: 1, Idx: 0}, {Ino: 1, Idx: 1}}, []int64{1})
	})
	env.MustRun()
	if !panicked {
		t.Fatal("expected panic on stripes/sizes mismatch")
	}
}
