package conformance

import (
	"cmp"
	"fmt"
	"math/rand"
	"path"
	"slices"
	"strings"
	"testing"

	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file holds the differential half of the suite: random operation
// sequences applied to a system and to the in-memory reference file
// system must show the same results. It is the paper's virtualization
// claim stated as a property — whatever a system does underneath (a
// reorganized object tree, sharded metadata, leased caches) must not be
// observable through its namespace. Every sequence is drawn from a
// seed, so a divergence replays from the seed alone.

// opKinds is the op mix. link comes last: it is drawn only when the
// provider claims hardlinks.
var opKinds = []string{"create", "unlink", "mkdir", "rename", "rmdir", "stat", "truncate", "symlink", "read", "readdir", "link"}

// oracleOp is one drawn op: kind on path a (rename and link: a onto
// b); n is the byte count of a create's write, a truncate or a read.
type oracleOp struct {
	kind int
	a, b string
	n    int64
}

func (o oracleOp) String() string { return fmt.Sprintf("%s(%s %s %d)", opKinds[o.kind], o.a, o.b, o.n) }

// drawOps draws one seed's 50 ops over a two-level namespace: /n0…n11
// at the root and /sub/n0…n7 below the one fixed directory. A readdir
// lists the drawn path or its parent.
func drawOps(seed int64, hardlinks bool) []oracleOp {
	rng := rand.New(rand.NewSource(seed))
	name := func() string {
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("/sub/n%d", rng.Intn(8))
		}
		return fmt.Sprintf("/n%d", rng.Intn(12))
	}
	kinds := len(opKinds)
	if !hardlinks {
		kinds--
	}
	ops := make([]oracleOp, 50)
	for i := range ops {
		ops[i] = oracleOp{kind: rng.Intn(kinds), a: name(), b: name(), n: rng.Int63n(1 << 16)}
		if opKinds[ops[i].kind] == "readdir" && rng.Intn(2) == 0 {
			ops[i].a = path.Dir(ops[i].a)
		}
	}
	return ops
}

// apply runs o on m and returns what it shows besides its error: the
// type, size and nlink of a stat, the byte count of a read, a listing.
// It is the one executor both mounts go through.
func apply(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, o oracleOp) (string, error) {
	switch opKinds[o.kind] {
	case "create":
		f, err := m.Create(p, ctx, o.a, 0644)
		if err == nil {
			_, err = f.WriteAt(p, 0, o.n)
			err = cmp.Or(err, f.Close(p))
		}
		return "", err
	case "unlink":
		return "", m.Unlink(p, ctx, o.a)
	case "mkdir":
		return "", m.Mkdir(p, ctx, o.a, 0755)
	case "rename":
		return "", m.Rename(p, ctx, o.a, o.b)
	case "rmdir":
		return "", m.Rmdir(p, ctx, o.a)
	case "stat":
		a, err := m.Stat(p, ctx, o.a)
		return fmt.Sprintf("%v size %d nlink %d", a.Type, a.Size, a.Nlink), err
	case "truncate":
		return "", m.Truncate(p, ctx, o.a, o.n)
	case "symlink":
		return "", m.Symlink(p, ctx, "/target", o.a)
	case "read":
		f, err := m.Open(p, ctx, o.a, vfs.OpenRead)
		var n int64
		if err == nil {
			n, err = f.ReadAt(p, 0, o.n)
			err = cmp.Or(err, f.Close(p))
		}
		return fmt.Sprintf("read %d", n), err
	case "readdir":
		ents, err := m.Readdir(p, ctx, o.a)
		var names strings.Builder
		for _, e := range ents {
			fmt.Fprintf(&names, "%s:%v ", e.Name, e.Type)
		}
		return names.String(), err
	}
	// link, the last kind
	return "", m.Link(p, ctx, o.a, o.b)
}

// walkTree lists m from dir down, one line per entry: its path, listed
// type, and the type, size and nlink a stat of the path returns. Every
// listed entry must stat.
func walkTree(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, dir string, lines []string) ([]string, error) {
	ents, err := m.Readdir(p, ctx, dir)
	if err != nil {
		return lines, fmt.Errorf("readdir %s: %v", dir, err)
	}
	for _, e := range ents {
		name := path.Join(dir, e.Name)
		a, err := m.Stat(p, ctx, name)
		if err != nil {
			return lines, fmt.Errorf("listed %s does not stat: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %v/%v size %d nlink %d", name, e.Type, a.Type, a.Size, a.Nlink))
		if a.Type == vfs.TypeDir {
			if lines, err = walkTree(p, m, ctx, name, lines); err != nil {
				return lines, err
			}
		}
	}
	return lines, nil
}

// Oracle is the differential check. For each seed it builds a fresh
// System and a MemFS mount beside it, draws 50 ops from the seed and
// applies each to both mounts, comparing the error, a stat's type, size
// and nlink, a read's byte count and a listing. It then walks both
// trees, which must list the same entries with the same attributes,
// every listed entry stating, and runs System.Check. A divergence fails
// t naming the provider, seed, step and op prefix, so a list of that one
// seed replays it. Oracle returns a one-line summary — seeds, ops issued
// per kind, divergences — for the caller to log beside its own counters.
func Oracle(t *testing.T, pr Provider, seeds []int64) string {
	t.Helper()
	results, issued := oracleResults(t, pr, seeds)
	failed := 0
	for _, r := range results {
		for _, f := range r.Failures {
			t.Errorf("oracle %s %s: %s", pr.Name, r.Name, f)
		}
		if len(r.Failures) > 0 {
			failed++
		}
	}
	total, kinds := 0, make([]string, len(opKinds))
	for k, n := range issued {
		total += n
		kinds[k] = fmt.Sprintf("%s %d", opKinds[k], n)
	}
	return fmt.Sprintf("oracle %s: %d seeds, %d ops (%s), %d divergences", pr.Name, len(seeds), total, strings.Join(kinds, ", "), failed)
}

// oracleResults runs one case per seed and returns each seed's outcome
// and the ops issued per kind without failing t: the meta-tests' face of
// Oracle, as Results is of Run. A seed's case stops at its first
// divergence: the two states differ after it.
func oracleResults(t *testing.T, pr Provider, seeds []int64) ([]CaseResult, []int) {
	issued := make([]int, len(opKinds))
	out := make([]CaseResult, len(seeds))
	for i, seed := range seeds {
		ops := drawOps(seed, pr.Capabilities.Hardlinks)
		out[i] = runCase(t, pr, testCase{name: fmt.Sprintf("seed %d", seed), fn: func(c *C) {
			ref := vfs.NewMount(vfs.NewMemFS(), params.FUSEParams{})
			for _, m := range []*vfs.Mount{c.M, ref} {
				if !c.must(m.Mkdir(c.P, c.S.User, "/sub", 0755), "mkdir /sub") {
					return
				}
			}
			for i, o := range ops {
				issued[o.kind]++
				got, gerr := apply(c.P, c.M, c.S.User, o)
				want, werr := apply(c.P, ref, c.S.User, o)
				if gerr != werr || (gerr == nil && got != want) {
					c.Errorf("step %d: %v: system %q %v, memfs %q %v; ops %s", i+1, o, got, gerr, want, werr, ops[:i+1])
					return
				}
			}
			got, gerr := walkTree(c.P, c.M, c.S.User, "/", nil)
			want, werr := walkTree(c.P, ref, c.S.User, "/", nil)
			if gerr != nil || werr != nil || !slices.Equal(got, want) {
				c.Errorf("after step %d: tree walk: system %q %v, memfs %q %v; ops %s", len(ops), got, gerr, want, werr, ops)
			}
		}})
	}
	return out, issued
}
