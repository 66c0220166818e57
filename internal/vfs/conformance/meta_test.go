package conformance

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// Meta-tests: the conformance suite is itself under test. A test
// battery earns trust two ways — by catching a deliberately broken
// provider, and by reporting what it did not check instead of silently
// passing it. Both are asserted here through Results, the non-fatal
// face of Run.

// brokenFS wraps the reference file system with one deliberate bug: a
// rename over an existing name drops the replaced target entirely —
// after the rename the destination name is gone rather than bound to
// the source file.
type brokenFS struct {
	vfs.Filesystem
}

func (b brokenFS) Rename(p *sim.Proc, ctx vfs.Ctx, srcDir vfs.Ino, srcName string, dstDir vfs.Ino, dstName string) error {
	_, lerr := b.Filesystem.Lookup(p, ctx, dstDir, dstName)
	if err := b.Filesystem.Rename(p, ctx, srcDir, srcName, dstDir, dstName); err != nil {
		return err
	}
	if lerr == nil {
		// The destination existed: drop the replaced name on the floor
		// (ignoring the error keeps directory targets intact — Unlink
		// refuses those, which is the only reason dir-onto-dir renames
		// survive this bug).
		_ = b.Filesystem.Unlink(p, ctx, dstDir, dstName)
	}
	return nil
}

// tornFS wraps the reference file system with a listing that is not a
// snapshot: it scans the first half of the name space, yields, and
// scans the second half — what a lock-free readdir that sleeps per row
// does. A file renamed across the split meanwhile shows up under both
// names or neither.
type tornFS struct {
	vfs.Filesystem
}

func (f tornFS) Readdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino) ([]vfs.DirEntry, error) {
	first, err := f.Filesystem.Readdir(p, ctx, dir)
	if err != nil {
		return nil, err
	}
	p.Sleep(100 * time.Microsecond)
	second, err := f.Filesystem.Readdir(p, ctx, dir)
	if err != nil {
		return nil, err
	}
	var out []vfs.DirEntry
	for _, e := range first {
		if e.Name < "n" {
			out = append(out, e)
		}
	}
	for _, e := range second {
		if e.Name >= "n" {
			out = append(out, e)
		}
	}
	return out, nil
}

// metaProvider mounts fs with the given capability claims.
func metaProvider(name string, caps Capabilities, fs func() vfs.Filesystem) Provider {
	return Provider{
		Name:         name,
		Capabilities: caps,
		New: func(t *testing.T) *System {
			env := sim.NewEnv(1)
			return &System{
				Env:   env,
				Mount: vfs.NewMount(fs(), params.FUSEParams{}),
				User:  vfs.Ctx{Node: 0, PID: 1, UID: 1000, GID: 100},
				Other: vfs.Ctx{Node: 0, PID: 2, UID: 2000, GID: 200},
				Root:  vfs.Ctx{Node: 0, PID: 3, UID: 0, GID: 0},
			}
		},
	}
}

func caseResult(t *testing.T, results []CaseResult, name string) CaseResult {
	t.Helper()
	for _, r := range results {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("case %q not in the battery", name)
	return CaseResult{}
}

// TestSuiteCatchesBrokenRename: a provider whose rename drops the
// replaced target must fail the replacement case — and only cases that
// actually exercise the bug, so a failure points at the defect rather
// than painting the whole battery red.
func TestSuiteCatchesBrokenRename(t *testing.T) {
	results := Results(t, metaProvider("broken-rename",
		Capabilities{Hardlinks: true, RenameOverNonempty: true},
		func() vfs.Filesystem { return brokenFS{vfs.NewMemFS()} }))

	replaced := caseResult(t, results, "RenameReplacesFile")
	if replaced.Skipped || len(replaced.Failures) == 0 {
		t.Errorf("RenameReplacesFile = %+v, want failures: the suite missed a rename that drops the replaced target", replaced)
	}
	for _, name := range []string{"RenameBasic", "CreateFileAttrs", "RenameDirOntoEmptyDir"} {
		if r := caseResult(t, results, name); r.Skipped || len(r.Failures) > 0 {
			t.Errorf("%s = %+v, want clean pass: the bug only fires when a rename replaces a file", name, r)
		}
	}
}

// TestSuiteReportsCapabilitySkips: when a provider declares no optional
// capabilities, every gated case must surface as an explicit skip
// naming the missing capability — a skipped check that looks like a
// pass is how conformance matrices rot.
func TestSuiteReportsCapabilitySkips(t *testing.T) {
	results := Results(t, metaProvider("no-caps", Capabilities{},
		func() vfs.Filesystem { return vfs.NewMemFS() }))

	gated := map[string]string{
		"LinkBasic":                            "hardlinks",
		"PermOpenWriteDeniedByMode":            "permissions",
		"RenameDirOntoNonEmptyDir":             "rename-over-nonempty",
		"NegativeDentryRecalledByRemoteCreate": "negative-dentry-leases",
		"CrashRecoverDurableNamespace":         "crash-recover",
		"ReshardGrowShrinkPreservesNamespace":  "handoff",
		"ReaddirIsOneSnapshot":                 "snapshot-reads",
	}
	for name, capName := range gated {
		r := caseResult(t, results, name)
		if !r.Skipped {
			t.Errorf("%s ran against a provider that never claimed the capability", name)
			continue
		}
		if !strings.Contains(r.SkipReason, capName) {
			t.Errorf("%s skip reason %q does not name the missing capability %q", name, r.SkipReason, capName)
		}
	}
	ran := 0
	for _, r := range results {
		if !r.Skipped {
			ran++
			if len(r.Failures) > 0 {
				t.Errorf("%s failed on the reference file system: %v", r.Name, r.Failures)
			}
		}
	}
	if ran == 0 {
		t.Error("no-caps provider ran zero cases; the core battery must not be capability-gated")
	}
}

// TestSuiteVerifiesCapabilityClaims: declaring a capability is a
// promise, not a label. A provider that claims permission enforcement
// it does not implement must fail the permission cases — the matrix
// can trust a green cell only if claims are exercised.
func TestSuiteVerifiesCapabilityClaims(t *testing.T) {
	results := Results(t, metaProvider("overclaims-perms",
		Capabilities{Permissions: true},
		func() vfs.Filesystem { return vfs.NewMemFS() }))

	for _, name := range []string{"PermOpenWriteDeniedByMode", "PermOtherUserReadDenied"} {
		r := caseResult(t, results, name)
		if r.Skipped {
			t.Errorf("%s skipped despite the provider claiming permissions", name)
		} else if len(r.Failures) == 0 {
			t.Errorf("%s passed against a file system that enforces nothing", name)
		}
	}
}

// TestSuiteCatchesTornReaddir: a provider that claims snapshot listings
// but assembles them across a yield must fail the snapshot case, and
// the reference file system, whose listing is one step, must pass it.
func TestSuiteCatchesTornReaddir(t *testing.T) {
	caps := Capabilities{SnapshotReads: true}
	torn := caseResult(t, Results(t, metaProvider("torn-readdir", caps,
		func() vfs.Filesystem { return tornFS{vfs.NewMemFS()} })), "ReaddirIsOneSnapshot")
	if torn.Skipped || len(torn.Failures) == 0 {
		t.Errorf("ReaddirIsOneSnapshot = %+v, want failures: the suite missed a listing torn by a rename", torn)
	}
	whole := caseResult(t, Results(t, metaProvider("whole-readdir", caps,
		func() vfs.Filesystem { return vfs.NewMemFS() })), "ReaddirIsOneSnapshot")
	if whole.Skipped || len(whole.Failures) > 0 {
		t.Errorf("ReaddirIsOneSnapshot = %+v, want a clean pass on the reference file system", whole)
	}
}

// nlinkFS wraps the reference file system with hard links that do not
// count: Link binds the new name, but a regular file's Nlink reads 1
// however many names it has.
type nlinkFS struct {
	vfs.Filesystem
}

func (f nlinkFS) Getattr(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino) (vfs.Attr, error) {
	return oneLink(f.Filesystem.Getattr(p, ctx, ino))
}

func (f nlinkFS) Lookup(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) (vfs.Attr, error) {
	return oneLink(f.Filesystem.Lookup(p, ctx, dir, name))
}

func oneLink(a vfs.Attr, err error) (vfs.Attr, error) {
	if a.Type == vfs.TypeRegular {
		a.Nlink = 1
	}
	return a, err
}

// metaSeeds are as many sequences as each caller of Oracle runs.
var metaSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}

// TestSuiteOracleCatchesBrokenProviders: the oracle must report a
// divergence, at a step, against a rename that drops the replaced
// target and against links that leave Nlink unchanged; running the
// first diverging seed alone must report the same divergence.
func TestSuiteOracleCatchesBrokenProviders(t *testing.T) {
	for name, fs := range map[string]func() vfs.Filesystem{
		"broken-rename": func() vfs.Filesystem { return brokenFS{vfs.NewMemFS()} },
		"broken-nlink":  func() vfs.Filesystem { return nlinkFS{vfs.NewMemFS()} },
	} {
		pr := metaProvider(name, Capabilities{Hardlinks: true}, fs)
		results, _ := oracleResults(t, pr, metaSeeds)
		i := slices.IndexFunc(results, func(r CaseResult) bool { return len(r.Failures) > 0 })
		if i < 0 {
			t.Errorf("%s: no divergence over %d seeds", name, len(metaSeeds))
			continue
		}
		first := results[i]
		if !strings.Contains(first.Failures[0], "step ") {
			t.Errorf("%s %s: divergence %q names no step", name, first.Name, first.Failures[0])
		}
		if again, _ := oracleResults(t, pr, metaSeeds[i:i+1]); !reflect.DeepEqual(again[0], first) {
			t.Errorf("%s: %s replayed as %+v, first run %+v", name, first.Name, again[0], first)
		}
		t.Logf("%s %s: %.200s", name, first.Name, first.Failures[0])
	}
}

// TestSuiteOracleReferenceAgreesWithItself: MemFS against MemFS shows
// no divergence.
func TestSuiteOracleReferenceAgreesWithItself(t *testing.T) {
	results, _ := oracleResults(t, metaProvider("memfs", Capabilities{Hardlinks: true}, func() vfs.Filesystem { return vfs.NewMemFS() }), metaSeeds)
	for _, r := range results {
		if len(r.Failures) > 0 {
			t.Errorf("MemFS diverged from itself at %s: %v", r.Name, r.Failures)
		}
	}
}
