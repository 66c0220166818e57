package core_test

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// TestCOFSMemFSOracleDeepProperty drives COFS-over-GPFS and the MemFS
// reference with identical random operation sequences and requires
// identical outcomes: errors, final listings, and file sizes. This is
// the virtualization claim of the paper stated as a property — the
// re-organized underlying layout must be unobservable through the
// virtual namespace. The property is checked at 1, 2 and 4 metadata
// shards: shard count (and with it the cross-shard two-phase paths for
// rename, link and remove) must be observationally invisible too.
func TestCOFSMemFSOracleDeepProperty(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			testOracleDeep(t, shards, nil)
		})
	}
}

// TestCOFSOracleWithLeaseCache repeats the deep oracle property with
// the coherent lease cache enabled: lease-served hits and recalls must
// never change what a client observes, at 1 and 2 shards.
func TestCOFSOracleWithLeaseCache(t *testing.T) {
	for _, shards := range []int{1, 2} {
		shards := shards
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			testOracleDeep(t, shards, func(cfg *params.Config) {
				cfg.COFS.AttrLease = 30 * time.Second
			})
		})
	}
}

func testOracleDeep(t *testing.T, shards int, tweak func(*params.Config)) {
	type op struct {
		Kind byte
		A, B uint8
		N    uint16
	}
	octx := vfs.Ctx{Node: 0, PID: 1, UID: 1000, GID: 100}
	f := func(ops []op) bool {
		cfg := params.Default()
		cfg.COFS.MetadataShards = shards
		if tweak != nil {
			tweak(&cfg)
		}
		tb := cluster.New(1, 1, cfg)
		d := core.Deploy(tb, nil)
		m := d.Mounts[0]
		om := vfs.NewMount(vfs.NewMemFS(), params.FUSEParams{})
		ok := true
		// A small namespace: names may denote files or directories at
		// the top level, plus entries below the fixed subdir /sub.
		name := func(x uint8) string {
			if x%16 < 4 {
				return fmt.Sprintf("/sub/n%d", x%8)
			}
			return fmt.Sprintf("/n%d", x%12)
		}
		tb.Env.Spawn("prep", func(p *sim.Proc) {
			if err := m.Mkdir(p, octx, "/sub", 0755); err != nil {
				panic(err)
			}
			if err := om.Mkdir(p, octx, "/sub", 0755); err != nil {
				panic(err)
			}
		})
		tb.Env.MustRun()
		tb.Env.Spawn("prop", func(p *sim.Proc) {
			for _, o := range ops {
				var e1, e2 error
				switch o.Kind % 10 {
				case 0: // create + write + close
					n := int64(o.N)
					f1, err := m.Create(p, octx, name(o.A), 0644)
					e1 = err
					if err == nil {
						f1.WriteAt(p, 0, n)
						f1.Close(p)
					}
					f2, err := om.Create(p, octx, name(o.A), 0644)
					e2 = err
					if err == nil {
						f2.WriteAt(p, 0, n)
						f2.Close(p)
					}
				case 1:
					e1 = m.Unlink(p, octx, name(o.A))
					e2 = om.Unlink(p, octx, name(o.A))
				case 2:
					e1 = m.Mkdir(p, octx, name(o.A), 0755)
					e2 = om.Mkdir(p, octx, name(o.A), 0755)
				case 3:
					e1 = m.Rename(p, octx, name(o.A), name(o.B))
					e2 = om.Rename(p, octx, name(o.A), name(o.B))
				case 4:
					e1 = m.Rmdir(p, octx, name(o.A))
					e2 = om.Rmdir(p, octx, name(o.A))
				case 5:
					var a1, a2 vfs.Attr
					a1, e1 = m.Stat(p, octx, name(o.A))
					a2, e2 = om.Stat(p, octx, name(o.A))
					if e1 == nil && e2 == nil {
						if a1.Size != a2.Size || a1.Type != a2.Type || a1.Nlink != a2.Nlink {
							t.Logf("attr divergence at %s: cofs=%+v memfs=%+v", name(o.A), a1, a2)
							ok = false
							return
						}
					}
				case 6:
					e1 = m.Link(p, octx, name(o.A), name(o.B))
					e2 = om.Link(p, octx, name(o.A), name(o.B))
				case 7:
					e1 = m.Truncate(p, octx, name(o.A), int64(o.N))
					e2 = om.Truncate(p, octx, name(o.A), int64(o.N))
				case 8:
					e1 = m.Symlink(p, octx, "/target", name(o.A))
					e2 = om.Symlink(p, octx, "/target", name(o.A))
				case 9: // open for read + read + close
					n := int64(o.N)
					var n1, n2 int64 = -1, -1
					f1, err := m.Open(p, octx, name(o.A), vfs.OpenRead)
					e1 = err
					if err == nil {
						n1, _ = f1.ReadAt(p, 0, n)
						f1.Close(p)
					}
					f2, err := om.Open(p, octx, name(o.A), vfs.OpenRead)
					e2 = err
					if err == nil {
						n2, _ = f2.ReadAt(p, 0, n)
						f2.Close(p)
					}
					if n1 != n2 {
						t.Logf("read divergence at %s: cofs=%d memfs=%d", name(o.A), n1, n2)
						ok = false
						return
					}
				}
				if e1 != e2 {
					t.Logf("error divergence on %+v (%s): cofs=%v memfs=%v", o, name(o.A), e1, e2)
					ok = false
					return
				}
			}
			// Compare final listings of both directories.
			for _, dir := range []string{"/", "/sub"} {
				l1, err1 := m.Readdir(p, octx, dir)
				l2, err2 := om.Readdir(p, octx, dir)
				if (err1 == nil) != (err2 == nil) || len(l1) != len(l2) {
					t.Logf("listing divergence in %s: cofs=%v (%v) memfs=%v (%v)", dir, l1, err1, l2, err2)
					ok = false
					return
				}
				for i := range l1 {
					if l1[i].Name != l2[i].Name || l1[i].Type != l2[i].Type {
						t.Logf("entry divergence in %s: cofs=%+v memfs=%+v", dir, l1[i], l2[i])
						ok = false
						return
					}
				}
			}
		})
		if err := tb.Env.Run(); err != nil {
			t.Log(err)
			return false
		}
		if err := d.Service.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCOFSOracleWithAttrCache repeats the oracle property with the
// client lease cache enabled, its term the FUSE entry timeout: caching
// must never change what a single client observes of its own
// operations.
func TestCOFSOracleWithAttrCache(t *testing.T) {
	octx := vfs.Ctx{Node: 0, PID: 1, UID: 1000, GID: 100}
	type op struct {
		Kind byte
		A    uint8
		N    uint16
	}
	f := func(ops []op) bool {
		tb, d := core.Rig(t, 2, 1, func(c *params.Config) { c.COFS.AttrLease = c.FUSE.EntryTimeout })
		m := d.Mounts[0]
		om := vfs.NewMount(vfs.NewMemFS(), params.FUSEParams{})
		name := func(x uint8) string { return fmt.Sprintf("/n%d", x%8) }
		ok := true
		tb.Env.Spawn("prop", func(p *sim.Proc) {
			for _, o := range ops {
				var e1, e2 error
				switch o.Kind % 5 {
				case 0:
					n := int64(o.N)
					f1, err := m.Create(p, octx, name(o.A), 0644)
					e1 = err
					if err == nil {
						f1.WriteAt(p, 0, n)
						f1.Close(p)
					}
					f2, err := om.Create(p, octx, name(o.A), 0644)
					e2 = err
					if err == nil {
						f2.WriteAt(p, 0, n)
						f2.Close(p)
					}
				case 1:
					e1 = m.Unlink(p, octx, name(o.A))
					e2 = om.Unlink(p, octx, name(o.A))
				case 2:
					var a1, a2 vfs.Attr
					a1, e1 = m.Stat(p, octx, name(o.A))
					a2, e2 = om.Stat(p, octx, name(o.A))
					if e1 == nil && e2 == nil && (a1.Size != a2.Size || a1.Nlink != a2.Nlink) {
						t.Logf("attr divergence at %s: cofs=%+v memfs=%+v", name(o.A), a1, a2)
						ok = false
						return
					}
				case 3:
					e1 = m.Truncate(p, octx, name(o.A), int64(o.N))
					e2 = om.Truncate(p, octx, name(o.A), int64(o.N))
				case 4:
					e1 = m.Link(p, octx, name(o.A), name(o.A/2))
					e2 = om.Link(p, octx, name(o.A), name(o.A/2))
				}
				if e1 != e2 {
					t.Logf("error divergence on %+v: cofs=%v memfs=%v", o, e1, e2)
					ok = false
					return
				}
			}
		})
		if err := tb.Env.Run(); err != nil {
			t.Log(err)
			return false
		}
		return ok && d.Service.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
