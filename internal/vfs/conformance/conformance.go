// Package conformance is a reusable POSIX-behaviour test suite for
// vfs.Filesystem implementations accessed through a vfs.Mount.
//
// The same battery of subtests runs against the in-memory reference file
// system (vfs.MemFS), the GPFS-like parallel file system (internal/pfs)
// and the COFS virtualization layer (internal/core) over every store
// backend. The paper's prototype is explicitly "POSIX compliant"
// (section III) and COFS must be indistinguishable from the file system
// it interposes; this suite is what pins that equivalence down.
//
// The suite is one call, parameterized over a Provider in the style of
// jmgilman's fstest: the provider declares what it supports
// (Capabilities) and the suite auto-skips — with a reported reason,
// never a silent pass — whatever the provider lacks. Capability
// batteries beyond plain POSIX (crash/recover, standby promotion, live
// reshard) run through optional hooks on System.
//
// Usage:
//
//	func TestConformance(t *testing.T) {
//		conformance.Run(t, conformance.Provider{
//			Name:         "cofs",
//			Capabilities: conformance.Capabilities{Permissions: true, Hardlinks: true, ...},
//			New:          func(t *testing.T) *conformance.System { ... },
//		})
//	}
//
// Every subtest receives a fresh System, so tests are independent and
// order-insensitive. Oracle (oracle.go) is the differential half: seeded
// random op sequences checked against vfs.MemFS.
package conformance

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// Capability is one optional behaviour a provider may declare. Cases
// that need a capability the provider lacks are skipped with a reason
// naming it.
type Capability uint32

// The capability set the battery keys on.
const (
	// CapPermissions: the system enforces mode bits and ownership (the
	// in-memory reference file system does not).
	CapPermissions Capability = 1 << iota
	// CapHardlinks: Link is supported (multiple names per object).
	CapHardlinks
	// CapRenameOverNonempty: rename onto a non-empty directory is
	// detected and refused with ENOTEMPTY.
	CapRenameOverNonempty
	// CapNegativeDentryLeases: missing-name lookups install coherent
	// negative dentries that a conflicting remote create recalls.
	CapNegativeDentryLeases
	// CapCrashRecover: the system can crash (losing volatile state) and
	// recover its durable namespace; System.Crash/Recover must be set.
	CapCrashRecover
	// CapHandoff: the system can reshard its metadata plane live, with
	// WAL-handoff durability; System.Reshard must be set.
	CapHandoff
	// CapSnapshotReads: a directory listing is one snapshot — it holds
	// exactly the names the directory had at a single instant between
	// the call and its return, however long the scan takes and whatever
	// renames land meanwhile (a readdir that collects names across
	// yields can return both names of a file being renamed, or neither).
	CapSnapshotReads
)

var capabilityNames = []struct {
	bit  Capability
	name string
}{
	{CapPermissions, "permissions"},
	{CapHardlinks, "hardlinks"},
	{CapRenameOverNonempty, "rename-over-nonempty"},
	{CapNegativeDentryLeases, "negative-dentry-leases"},
	{CapCrashRecover, "crash-recover"},
	{CapHandoff, "handoff"},
	{CapSnapshotReads, "snapshot-reads"},
}

// String names the set bits, comma-separated.
func (c Capability) String() string {
	var names []string
	for _, cn := range capabilityNames {
		if c&cn.bit != 0 {
			names = append(names, cn.name)
		}
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// Capabilities declares what a provider supports, by name rather than
// bitmask so call sites read like a datasheet.
type Capabilities struct {
	Permissions          bool
	Hardlinks            bool
	RenameOverNonempty   bool
	NegativeDentryLeases bool
	CrashRecover         bool
	Handoff              bool
	SnapshotReads        bool
}

func (cs Capabilities) mask() Capability {
	var m Capability
	if cs.Permissions {
		m |= CapPermissions
	}
	if cs.Hardlinks {
		m |= CapHardlinks
	}
	if cs.RenameOverNonempty {
		m |= CapRenameOverNonempty
	}
	if cs.NegativeDentryLeases {
		m |= CapNegativeDentryLeases
	}
	if cs.CrashRecover {
		m |= CapCrashRecover
	}
	if cs.Handoff {
		m |= CapHandoff
	}
	if cs.SnapshotReads {
		m |= CapSnapshotReads
	}
	return m
}

// System is one file system under test, fully assembled (simulation
// environment, mounted client, caller identities, capability hooks).
type System struct {
	// Env drives the simulation; the suite spawns test bodies as
	// simulated processes and drains the environment after each.
	Env *sim.Env
	// Mount is the file system under test, mounted on some node.
	Mount *vfs.Mount
	// User is an unprivileged caller (the default identity).
	User vfs.Ctx
	// Other is a second unprivileged caller with a different uid/gid.
	Other vfs.Ctx
	// Root is a caller with uid 0.
	Root vfs.Ctx
	// Check, if non-nil, runs after each subtest body (with the
	// simulation drained) to validate implementation invariants.
	Check func() error

	// Mount2 is a second client on another node, for coherence cases
	// (negative-dentry recall); User2 is its caller identity. Optional:
	// cases that need them skip when absent.
	Mount2 *vfs.Mount
	User2  vfs.Ctx

	// Shards is the serving shard count (0 reads as 1); the reshard
	// battery grows/shrinks relative to it.
	Shards int

	// Crash/Recover implement the CapCrashRecover battery: Crash drops
	// volatile state (tables, unflushed log tail), Recover replays the
	// durable log and readies the system for new work (id-counter
	// adoption included).
	Crash   func()
	Recover func(p *sim.Proc)
	// Promote, if set, switches service to a hot standby instead of
	// replaying the primary's log (the crash/promote battery).
	Promote func(p *sim.Proc)
	// Reshard implements the CapHandoff battery: live-migrate the
	// metadata plane to n shards.
	Reshard func(p *sim.Proc, n int) error
}

// Factory builds a fresh System for one subtest.
type Factory func(t *testing.T) *System

// Provider is one system under test: how to build it and what it
// claims to support. The suite verifies everything claimed and skips
// (reported) everything not.
type Provider struct {
	Name         string
	New          Factory
	Capabilities Capabilities
}

// CaseResult is one case's outcome, as returned by Results.
type CaseResult struct {
	Name       string
	Skipped    bool
	SkipReason string
	Failures   []string
}

// C is the per-subtest helper handed to test bodies: it carries the
// simulated process plus assertion helpers. Failures accumulate here
// (reported after the simulation drains) so the battery can also run
// in result-collection mode, where a failure must not fail the test.
type C struct {
	P *sim.Proc
	S *System
	M *vfs.Mount

	failures []string
}

// Errorf records a test failure (safe from the simulation goroutine).
func (c *C) Errorf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// must fails the subtest if err is non-nil.
func (c *C) must(err error, what string) bool {
	if err != nil {
		c.Errorf("%s: unexpected error: %v", what, err)
		return false
	}
	return true
}

// wantErr asserts err is (or wraps) want.
func (c *C) wantErr(err, want error, what string) {
	if !errors.Is(err, want) {
		c.Errorf("%s: got error %v, want %v", what, err, want)
	}
}

// wantAnyErr asserts err is non-nil.
func (c *C) wantAnyErr(err error, what string) {
	if err == nil {
		c.Errorf("%s: expected an error, got nil", what)
	}
}

// create makes an empty file and closes it.
func (c *C) create(ctx vfs.Ctx, path string, mode uint32) vfs.Attr {
	f, err := c.M.Create(c.P, ctx, path, mode)
	if !c.must(err, "create "+path) {
		return vfs.Attr{}
	}
	attr, err := c.M.Stat(c.P, ctx, path)
	c.must(err, "stat after create "+path)
	c.must(f.Close(c.P), "close "+path)
	return attr
}

// write creates the file and writes n bytes at offset 0.
func (c *C) write(ctx vfs.Ctx, path string, n int64) {
	f, err := c.M.Create(c.P, ctx, path, 0644)
	if !c.must(err, "create "+path) {
		return
	}
	if _, err := f.WriteAt(c.P, 0, n); err != nil {
		c.Errorf("write %s: %v", path, err)
	}
	c.must(f.Close(c.P), "close "+path)
}

// size stats path and returns its size.
func (c *C) size(ctx vfs.Ctx, path string) int64 {
	attr, err := c.M.Stat(c.P, ctx, path)
	if !c.must(err, "stat "+path) {
		return -1
	}
	return attr.Size
}

type testCase struct {
	name  string
	needs Capability // skipped unless the provider declares them all
	// wants, if non-nil, inspects the built System for the hooks the
	// case drives; a non-empty return is a reported skip reason.
	wants func(s *System) string
	fn    func(c *C)
}

// Run executes the conformance battery as subtests of t, building a
// fresh System per case via the provider's factory. Cases needing
// capabilities or hooks the provider lacks are skipped with the reason
// in the test log — a skip is visible in verbose output and countable,
// never a silent pass.
func Run(t *testing.T, pr Provider) {
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := runCase(t, pr, tc)
			if res.Skipped {
				t.Skip(res.SkipReason)
			}
			for _, f := range res.Failures {
				t.Error(f)
			}
		})
	}
}

// Results executes the battery and returns every case's outcome
// without failing or skipping t. This is the suite testing itself: the
// meta-tests assert that a broken provider produces failures and that
// capability gaps produce reported skips (see meta_test.go).
func Results(t *testing.T, pr Provider) []CaseResult {
	out := make([]CaseResult, 0, len(cases))
	for _, tc := range cases {
		out = append(out, runCase(t, pr, tc))
	}
	return out
}

// runCase builds a fresh System and runs one case to a CaseResult.
func runCase(t *testing.T, pr Provider, tc testCase) CaseResult {
	res := CaseResult{Name: tc.name}
	if miss := tc.needs &^ pr.Capabilities.mask(); miss != 0 {
		res.Skipped = true
		res.SkipReason = fmt.Sprintf("provider %q lacks capability: %v", pr.Name, miss)
		return res
	}
	s := pr.New(t)
	if tc.wants != nil {
		if reason := tc.wants(s); reason != "" {
			res.Skipped = true
			res.SkipReason = reason
			return res
		}
	}
	c := &C{S: s, M: s.Mount}
	s.Env.Spawn("conformance."+tc.name, func(p *sim.Proc) {
		c.P = p
		tc.fn(c)
	})
	s.Env.MustRun()
	if s.Check != nil {
		if err := s.Check(); err != nil {
			c.Errorf("post-test invariant check: %v", err)
		}
	}
	res.Failures = c.failures
	return res
}

// Hook-requirement helpers for capability cases.

func wantsSecondMount(s *System) string {
	if s.Mount2 == nil {
		return "system provides no second mount (Mount2)"
	}
	return ""
}

func wantsCrashRecover(s *System) string {
	if s.Crash == nil || s.Recover == nil {
		return "system provides no Crash/Recover hooks"
	}
	return ""
}

func wantsCrashPromote(s *System) string {
	if s.Crash == nil || s.Promote == nil {
		return "system provides no Crash/Promote hooks"
	}
	return ""
}

// wantsStandbyAndSecondMount: the system has a hot standby to promote
// and a second mount to mutate from.
func wantsStandbyAndSecondMount(s *System) string {
	if r := wantsCrashPromote(s); r != "" {
		return r
	}
	return wantsSecondMount(s)
}

func wantsReshard(s *System) string {
	if s.Reshard == nil {
		return "system provides no Reshard hook"
	}
	return ""
}

func (s *System) shards() int {
	if s.Shards < 1 {
		return 1
	}
	return s.Shards
}

var cases = []testCase{
	{name: "RootIsDir", fn: func(c *C) {
		attr, err := c.M.Stat(c.P, c.S.User, "/")
		if c.must(err, "stat /") && attr.Type != vfs.TypeDir {
			c.Errorf("root type = %v, want dir", attr.Type)
		}
	}},

	{name: "CreateFileAttrs", fn: func(c *C) {
		attr := c.create(c.S.User, "/f", 0640)
		if attr.Type != vfs.TypeRegular {
			c.Errorf("type = %v, want regular", attr.Type)
		}
		if attr.Mode != 0640 {
			c.Errorf("mode = %o, want 0640", attr.Mode)
		}
		if attr.Nlink != 1 {
			c.Errorf("nlink = %d, want 1", attr.Nlink)
		}
		if attr.Size != 0 {
			c.Errorf("size = %d, want 0", attr.Size)
		}
		if attr.UID != c.S.User.UID || attr.GID != c.S.User.GID {
			c.Errorf("owner = %d:%d, want %d:%d", attr.UID, attr.GID, c.S.User.UID, c.S.User.GID)
		}
	}},

	{name: "CreateTruncatesExisting", fn: func(c *C) {
		// Mount.Create is O_CREAT without O_EXCL: recreating an
		// existing file opens and truncates it.
		c.write(c.S.User, "/f", 4096)
		if got := c.size(c.S.User, "/f"); got != 4096 {
			c.Errorf("size after write = %d, want 4096", got)
		}
		f, err := c.M.Create(c.P, c.S.User, "/f", 0644)
		if c.must(err, "re-create /f") {
			c.must(f.Close(c.P), "close")
		}
		if got := c.size(c.S.User, "/f"); got != 0 {
			c.Errorf("size after re-create = %d, want 0", got)
		}
	}},

	{name: "CreateInMissingDir", fn: func(c *C) {
		_, err := c.M.Create(c.P, c.S.User, "/no/such/f", 0644)
		c.wantErr(err, vfs.ErrNotExist, "create in missing dir")
	}},

	{name: "CreateUnderFile", fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		_, err := c.M.Create(c.P, c.S.User, "/f/child", 0644)
		c.wantErr(err, vfs.ErrNotDir, "create under regular file")
	}},

	{name: "NameTooLong", fn: func(c *C) {
		long := make([]byte, vfs.MaxNameLen+1)
		for i := range long {
			long[i] = 'x'
		}
		_, err := c.M.Create(c.P, c.S.User, "/"+string(long), 0644)
		c.wantAnyErr(err, "create with over-long name")
	}},

	{name: "LookupMissing", fn: func(c *C) {
		_, err := c.M.Stat(c.P, c.S.User, "/missing")
		c.wantErr(err, vfs.ErrNotExist, "stat missing")
	}},

	{name: "StatNestedPath", fn: func(c *C) {
		c.must(c.M.MkdirAll(c.P, c.S.User, "/a/b/c", 0755), "mkdirall")
		c.create(c.S.User, "/a/b/c/f", 0644)
		attr, err := c.M.Stat(c.P, c.S.User, "/a/b/c/f")
		if c.must(err, "stat nested") && attr.Type != vfs.TypeRegular {
			c.Errorf("type = %v, want regular", attr.Type)
		}
	}},

	{name: "WalkThroughFile", fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		_, err := c.M.Stat(c.P, c.S.User, "/f/below")
		c.wantErr(err, vfs.ErrNotDir, "walk through regular file")
	}},

	{name: "WriteExtendsSize", fn: func(c *C) {
		f, err := c.M.Create(c.P, c.S.User, "/f", 0644)
		if !c.must(err, "create") {
			return
		}
		if _, err := f.WriteAt(c.P, 100, 50); err != nil {
			c.Errorf("write: %v", err)
		}
		c.must(f.Close(c.P), "close")
		if got := c.size(c.S.User, "/f"); got != 150 {
			c.Errorf("size = %d, want 150", got)
		}
	}},

	{name: "WriteSparseHole", fn: func(c *C) {
		f, err := c.M.Create(c.P, c.S.User, "/f", 0644)
		if !c.must(err, "create") {
			return
		}
		if _, err := f.WriteAt(c.P, 1<<20, 1); err != nil {
			c.Errorf("write: %v", err)
		}
		c.must(f.Close(c.P), "close")
		if got := c.size(c.S.User, "/f"); got != 1<<20+1 {
			c.Errorf("size = %d, want %d", got, 1<<20+1)
		}
	}},

	{name: "ReadShortAtEOF", fn: func(c *C) {
		c.write(c.S.User, "/f", 100)
		f, err := c.M.Open(c.P, c.S.User, "/f", vfs.OpenRead)
		if !c.must(err, "open") {
			return
		}
		defer f.Close(c.P)
		if got, err := f.ReadAt(c.P, 60, 100); err != nil || got != 40 {
			c.Errorf("read at 60: got (%d, %v), want (40, nil)", got, err)
		}
		if got, err := f.ReadAt(c.P, 100, 10); err != nil || got != 0 {
			c.Errorf("read at EOF: got (%d, %v), want (0, nil)", got, err)
		}
		if got, err := f.ReadAt(c.P, 500, 10); err != nil || got != 0 {
			c.Errorf("read past EOF: got (%d, %v), want (0, nil)", got, err)
		}
	}},

	{name: "ReadEmptyFile", fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		f, err := c.M.Open(c.P, c.S.User, "/f", vfs.OpenRead)
		if !c.must(err, "open") {
			return
		}
		defer f.Close(c.P)
		if got, err := f.ReadAt(c.P, 0, 100); err != nil || got != 0 {
			c.Errorf("read: got (%d, %v), want (0, nil)", got, err)
		}
	}},

	{name: "ReadSeesAppendedBytes", fn: func(c *C) {
		// A reader that has already read (and may have cached) a short
		// file must see the bytes appended afterwards, then read the
		// grown file again unchanged.
		c.write(c.S.User, "/f", 256<<10)
		f, err := c.M.Open(c.P, c.S.User, "/f", vfs.OpenRead)
		if !c.must(err, "open") {
			return
		}
		defer f.Close(c.P)
		if got, err := f.ReadAt(c.P, 0, 1<<20); err != nil || got != 256<<10 {
			c.Errorf("read before append: got (%d, %v), want (%d, nil)", got, err, 256<<10)
		}
		w, err := c.M.Open(c.P, c.S.User, "/f", vfs.OpenWrite)
		if !c.must(err, "open for append") {
			return
		}
		if _, err := w.WriteAt(c.P, 256<<10, 256<<10); err != nil {
			c.Errorf("append: %v", err)
		}
		c.must(w.Close(c.P), "close appender")
		for _, pass := range []string{"after append", "again"} {
			if got, err := f.ReadAt(c.P, 0, 1<<20); err != nil || got != 512<<10 {
				c.Errorf("read %s: got (%d, %v), want (%d, nil)", pass, got, err, 512<<10)
			}
		}
	}},

	{name: "NegativeOffsetRejected", fn: func(c *C) {
		c.write(c.S.User, "/f", 10)
		f, err := c.M.Open(c.P, c.S.User, "/f", vfs.OpenRead)
		if !c.must(err, "open") {
			return
		}
		defer f.Close(c.P)
		_, err = f.ReadAt(c.P, -1, 10)
		c.wantErr(err, vfs.ErrInvalid, "read at negative offset")
	}},

	{name: "TruncateGrowShrink", fn: func(c *C) {
		c.write(c.S.User, "/f", 100)
		c.must(c.M.Truncate(c.P, c.S.User, "/f", 4096), "grow")
		if got := c.size(c.S.User, "/f"); got != 4096 {
			c.Errorf("size after grow = %d, want 4096", got)
		}
		c.must(c.M.Truncate(c.P, c.S.User, "/f", 10), "shrink")
		if got := c.size(c.S.User, "/f"); got != 10 {
			c.Errorf("size after shrink = %d, want 10", got)
		}
	}},

	{name: "OpenTruncZeroesSize", fn: func(c *C) {
		c.write(c.S.User, "/f", 2048)
		f, err := c.M.Open(c.P, c.S.User, "/f", vfs.OpenWrite|vfs.OpenTrunc)
		if !c.must(err, "open O_TRUNC") {
			return
		}
		c.must(f.Close(c.P), "close")
		if got := c.size(c.S.User, "/f"); got != 0 {
			c.Errorf("size after O_TRUNC = %d, want 0", got)
		}
	}},

	{name: "OpenMissing", fn: func(c *C) {
		_, err := c.M.Open(c.P, c.S.User, "/missing", vfs.OpenRead)
		c.wantErr(err, vfs.ErrNotExist, "open missing")
	}},

	{name: "OpenDirectory", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		_, err := c.M.Open(c.P, c.S.User, "/d", vfs.OpenRead)
		c.wantErr(err, vfs.ErrIsDir, "open directory")
	}},

	{name: "WriteOnReadOnlyHandle", fn: func(c *C) {
		c.write(c.S.User, "/f", 10)
		f, err := c.M.Open(c.P, c.S.User, "/f", vfs.OpenRead)
		if !c.must(err, "open read-only") {
			return
		}
		defer f.Close(c.P)
		_, err = f.WriteAt(c.P, 0, 10)
		c.wantErr(err, vfs.ErrPerm, "write on read-only handle")
	}},

	{name: "CloseTwice", fn: func(c *C) {
		f, err := c.M.Create(c.P, c.S.User, "/f", 0644)
		if !c.must(err, "create") {
			return
		}
		c.must(f.Close(c.P), "first close")
		c.wantErr(f.Close(c.P), vfs.ErrBadHandle, "second close")
	}},

	{name: "ReadAfterClose", fn: func(c *C) {
		c.write(c.S.User, "/f", 10)
		f, err := c.M.Open(c.P, c.S.User, "/f", vfs.OpenRead)
		if !c.must(err, "open") {
			return
		}
		c.must(f.Close(c.P), "close")
		_, err = f.ReadAt(c.P, 0, 10)
		c.wantErr(err, vfs.ErrBadHandle, "read after close")
	}},

	{name: "FsyncOpenFile", fn: func(c *C) {
		f, err := c.M.Create(c.P, c.S.User, "/f", 0644)
		if !c.must(err, "create") {
			return
		}
		if _, err := f.WriteAt(c.P, 0, 1024); err != nil {
			c.Errorf("write: %v", err)
		}
		c.must(f.Fsync(c.P), "fsync")
		c.must(f.Close(c.P), "close")
	}},

	{name: "UnlinkMissing", fn: func(c *C) {
		c.wantErr(c.M.Unlink(c.P, c.S.User, "/missing"), vfs.ErrNotExist, "unlink missing")
	}},

	{name: "UnlinkDirectory", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.wantErr(c.M.Unlink(c.P, c.S.User, "/d"), vfs.ErrIsDir, "unlink directory")
	}},

	{name: "UnlinkRemovesEntry", fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		c.must(c.M.Unlink(c.P, c.S.User, "/f"), "unlink")
		_, err := c.M.Stat(c.P, c.S.User, "/f")
		c.wantErr(err, vfs.ErrNotExist, "stat after unlink")
	}},

	{name: "UnlinkWhileOpenThenClose", fn: func(c *C) {
		// POSIX allows unlinking an open file; the final close must
		// still succeed (the paper's workloads delete files that other
		// ranks may still hold open at the tail of a phase).
		f, err := c.M.Create(c.P, c.S.User, "/f", 0644)
		if !c.must(err, "create") {
			return
		}
		if _, err := f.WriteAt(c.P, 0, 512); err != nil {
			c.Errorf("write: %v", err)
		}
		c.must(c.M.Unlink(c.P, c.S.User, "/f"), "unlink while open")
		c.must(f.Close(c.P), "close after unlink")
	}},

	{name: "MkdirExisting", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.wantErr(c.M.Mkdir(c.P, c.S.User, "/d", 0755), vfs.ErrExist, "mkdir existing")
	}},

	{name: "MkdirAllIdempotent", fn: func(c *C) {
		c.must(c.M.MkdirAll(c.P, c.S.User, "/a/b/c", 0755), "first mkdirall")
		c.must(c.M.MkdirAll(c.P, c.S.User, "/a/b/c", 0755), "second mkdirall")
		attr, err := c.M.Stat(c.P, c.S.User, "/a/b/c")
		if c.must(err, "stat") && attr.Type != vfs.TypeDir {
			c.Errorf("type = %v, want dir", attr.Type)
		}
	}},

	{name: "MkdirNlink", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		attr, err := c.M.Stat(c.P, c.S.User, "/d")
		if c.must(err, "stat") && attr.Nlink != 2 {
			c.Errorf("new dir nlink = %d, want 2", attr.Nlink)
		}
	}},

	{name: "RmdirNonEmpty", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.create(c.S.User, "/d/f", 0644)
		c.wantErr(c.M.Rmdir(c.P, c.S.User, "/d"), vfs.ErrNotEmpty, "rmdir non-empty")
	}},

	{name: "RmdirFile", fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		c.wantErr(c.M.Rmdir(c.P, c.S.User, "/f"), vfs.ErrNotDir, "rmdir file")
	}},

	{name: "RmdirMissing", fn: func(c *C) {
		c.wantErr(c.M.Rmdir(c.P, c.S.User, "/missing"), vfs.ErrNotExist, "rmdir missing")
	}},

	{name: "RmdirThenRecreate", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.must(c.M.Rmdir(c.P, c.S.User, "/d"), "rmdir")
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "re-mkdir")
		c.create(c.S.User, "/d/f", 0644)
	}},

	{name: "RenameBasic", fn: func(c *C) {
		c.write(c.S.User, "/old", 777)
		before, err := c.M.Stat(c.P, c.S.User, "/old")
		c.must(err, "stat before")
		c.must(c.M.Rename(c.P, c.S.User, "/old", "/new"), "rename")
		_, err = c.M.Stat(c.P, c.S.User, "/old")
		c.wantErr(err, vfs.ErrNotExist, "old name after rename")
		after, err := c.M.Stat(c.P, c.S.User, "/new")
		if c.must(err, "stat new") {
			if after.Ino != before.Ino {
				c.Errorf("ino changed across rename: %d -> %d", before.Ino, after.Ino)
			}
			if after.Size != 777 {
				c.Errorf("size = %d, want 777", after.Size)
			}
		}
	}},

	{name: "RenameReplacesFile", fn: func(c *C) {
		c.write(c.S.User, "/src", 111)
		c.write(c.S.User, "/dst", 999)
		c.must(c.M.Rename(c.P, c.S.User, "/src", "/dst"), "rename over file")
		if got := c.size(c.S.User, "/dst"); got != 111 {
			c.Errorf("dst size = %d, want 111 (the source)", got)
		}
		_, err := c.M.Stat(c.P, c.S.User, "/src")
		c.wantErr(err, vfs.ErrNotExist, "src after rename")
	}},

	{name: "RenameFileOntoDir", fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.wantErr(c.M.Rename(c.P, c.S.User, "/f", "/d"), vfs.ErrIsDir, "file onto dir")
	}},

	{name: "RenameDirOntoFile", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.create(c.S.User, "/f", 0644)
		c.wantErr(c.M.Rename(c.P, c.S.User, "/d", "/f"), vfs.ErrNotDir, "dir onto file")
	}},

	{name: "RenameDirOntoNonEmptyDir", needs: CapRenameOverNonempty, fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/a", 0755), "mkdir a")
		c.must(c.M.Mkdir(c.P, c.S.User, "/b", 0755), "mkdir b")
		c.create(c.S.User, "/b/f", 0644)
		c.wantErr(c.M.Rename(c.P, c.S.User, "/a", "/b"), vfs.ErrNotEmpty, "dir onto non-empty dir")
	}},

	{name: "RenameDirOntoEmptyDir", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/a", 0755), "mkdir a")
		c.create(c.S.User, "/a/inner", 0644)
		c.must(c.M.Mkdir(c.P, c.S.User, "/b", 0755), "mkdir b")
		c.must(c.M.Rename(c.P, c.S.User, "/a", "/b"), "dir onto empty dir")
		_, err := c.M.Stat(c.P, c.S.User, "/b/inner")
		c.must(err, "stat moved child")
	}},

	{name: "RenameHardLinkAliasesNoop", needs: CapHardlinks, fn: func(c *C) {
		// POSIX: renaming one hard link onto another link of the same
		// object succeeds and leaves both names in place.
		c.create(c.S.User, "/a", 0644)
		c.must(c.M.Link(c.P, c.S.User, "/a", "/b"), "link")
		c.must(c.M.Rename(c.P, c.S.User, "/a", "/b"), "rename alias")
		if _, err := c.M.Stat(c.P, c.S.User, "/a"); err != nil {
			c.Errorf("alias /a missing after no-op rename: %v", err)
		}
		if _, err := c.M.Stat(c.P, c.S.User, "/b"); err != nil {
			c.Errorf("alias /b missing after no-op rename: %v", err)
		}
	}},

	{name: "RenameMissingSource", fn: func(c *C) {
		c.wantErr(c.M.Rename(c.P, c.S.User, "/missing", "/x"), vfs.ErrNotExist, "rename missing")
	}},

	{name: "RenameAcrossDirs", fn: func(c *C) {
		c.must(c.M.MkdirAll(c.P, c.S.User, "/a", 0755), "mkdir a")
		c.must(c.M.MkdirAll(c.P, c.S.User, "/b", 0755), "mkdir b")
		c.write(c.S.User, "/a/f", 42)
		c.must(c.M.Rename(c.P, c.S.User, "/a/f", "/b/g"), "rename across dirs")
		if got := c.size(c.S.User, "/b/g"); got != 42 {
			c.Errorf("moved size = %d, want 42", got)
		}
	}},

	{name: "RenameDirAcrossDirsUpdatesNlink", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/a", 0755), "mkdir a")
		c.must(c.M.Mkdir(c.P, c.S.User, "/b", 0755), "mkdir b")
		c.must(c.M.Mkdir(c.P, c.S.User, "/a/sub", 0755), "mkdir a/sub")
		aBefore, _ := c.M.Stat(c.P, c.S.User, "/a")
		c.must(c.M.Rename(c.P, c.S.User, "/a/sub", "/b/sub"), "move dir")
		aAfter, err := c.M.Stat(c.P, c.S.User, "/a")
		if c.must(err, "stat a") && aAfter.Nlink != aBefore.Nlink-1 {
			c.Errorf("source parent nlink = %d, want %d", aAfter.Nlink, aBefore.Nlink-1)
		}
		bAfter, err := c.M.Stat(c.P, c.S.User, "/b")
		if c.must(err, "stat b") && bAfter.Nlink != 3 {
			c.Errorf("dest parent nlink = %d, want 3", bAfter.Nlink)
		}
	}},

	{name: "LinkBasic", needs: CapHardlinks, fn: func(c *C) {
		c.write(c.S.User, "/a", 64)
		c.must(c.M.Link(c.P, c.S.User, "/a", "/b"), "link")
		aa, err := c.M.Stat(c.P, c.S.User, "/a")
		c.must(err, "stat a")
		bb, err := c.M.Stat(c.P, c.S.User, "/b")
		if c.must(err, "stat b") {
			if aa.Ino != bb.Ino {
				c.Errorf("link inos differ: %d vs %d", aa.Ino, bb.Ino)
			}
			if bb.Nlink != 2 {
				c.Errorf("nlink = %d, want 2", bb.Nlink)
			}
		}
		c.must(c.M.Unlink(c.P, c.S.User, "/a"), "unlink first name")
		bb, err = c.M.Stat(c.P, c.S.User, "/b")
		if c.must(err, "stat b after unlink") {
			if bb.Nlink != 1 {
				c.Errorf("nlink after unlink = %d, want 1", bb.Nlink)
			}
			if bb.Size != 64 {
				c.Errorf("size via second link = %d, want 64", bb.Size)
			}
		}
	}},

	{name: "LinkContentShared", needs: CapHardlinks, fn: func(c *C) {
		c.create(c.S.User, "/a", 0644)
		c.must(c.M.Link(c.P, c.S.User, "/a", "/b"), "link")
		f, err := c.M.Open(c.P, c.S.User, "/a", vfs.OpenWrite)
		if !c.must(err, "open a") {
			return
		}
		if _, err := f.WriteAt(c.P, 0, 512); err != nil {
			c.Errorf("write: %v", err)
		}
		c.must(f.Close(c.P), "close")
		if got := c.size(c.S.User, "/b"); got != 512 {
			c.Errorf("size via link = %d, want 512", got)
		}
	}},

	{name: "LinkToDir", needs: CapHardlinks, fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.wantErr(c.M.Link(c.P, c.S.User, "/d", "/d2"), vfs.ErrIsDir, "link to dir")
	}},

	{name: "LinkExistingName", needs: CapHardlinks, fn: func(c *C) {
		c.create(c.S.User, "/a", 0644)
		c.create(c.S.User, "/b", 0644)
		c.wantErr(c.M.Link(c.P, c.S.User, "/a", "/b"), vfs.ErrExist, "link over existing")
	}},

	{name: "SymlinkReadlink", fn: func(c *C) {
		c.must(c.M.Symlink(c.P, c.S.User, "/target/path", "/sl"), "symlink")
		got, err := c.M.Readlink(c.P, c.S.User, "/sl")
		if c.must(err, "readlink") && got != "/target/path" {
			c.Errorf("readlink = %q, want %q", got, "/target/path")
		}
		attr, err := c.M.Stat(c.P, c.S.User, "/sl")
		if c.must(err, "stat symlink") {
			if attr.Type != vfs.TypeSymlink {
				c.Errorf("type = %v, want symlink", attr.Type)
			}
			if attr.Size != int64(len("/target/path")) {
				c.Errorf("size = %d, want %d", attr.Size, len("/target/path"))
			}
		}
	}},

	{name: "OpenSymlink", fn: func(c *C) {
		// The mount layer does not follow symlinks; opening one is an
		// error on every stacked file system.
		c.must(c.M.Symlink(c.P, c.S.User, "/target", "/sl"), "symlink")
		_, err := c.M.Open(c.P, c.S.User, "/sl", vfs.OpenRead)
		c.wantErr(err, vfs.ErrInvalid, "open symlink")
	}},

	{name: "ReadlinkOnRegular", fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		_, err := c.M.Readlink(c.P, c.S.User, "/f")
		c.wantAnyErr(err, "readlink on regular file")
	}},

	{name: "ReaddirListsAll", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		want := []string{"aaa", "bbb", "ccc", "sub", "zzz"}
		for _, n := range []string{"zzz", "aaa", "ccc", "bbb"} {
			c.create(c.S.User, "/d/"+n, 0644)
		}
		c.must(c.M.Mkdir(c.P, c.S.User, "/d/sub", 0755), "mkdir sub")
		ents, err := c.M.Readdir(c.P, c.S.User, "/d")
		if !c.must(err, "readdir") {
			return
		}
		var got []string
		types := map[string]vfs.FileType{}
		for _, e := range ents {
			got = append(got, e.Name)
			types[e.Name] = e.Type
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			c.Errorf("readdir names = %v, want %v", got, want)
		}
		if types["sub"] != vfs.TypeDir {
			c.Errorf("sub type = %v, want dir", types["sub"])
		}
		if types["aaa"] != vfs.TypeRegular {
			c.Errorf("aaa type = %v, want regular", types["aaa"])
		}
	}},

	{name: "ReaddirEmptyDir", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		ents, err := c.M.Readdir(c.P, c.S.User, "/d")
		if c.must(err, "readdir") && len(ents) != 0 {
			c.Errorf("empty dir has %d entries: %v", len(ents), ents)
		}
	}},

	{name: "ReaddirOnFile", fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		_, err := c.M.Readdir(c.P, c.S.User, "/f")
		c.wantErr(err, vfs.ErrNotDir, "readdir on file")
	}},

	{name: "ReaddirReflectsUnlink", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.create(c.S.User, "/d/f1", 0644)
		c.create(c.S.User, "/d/f2", 0644)
		c.must(c.M.Unlink(c.P, c.S.User, "/d/f1"), "unlink")
		ents, err := c.M.Readdir(c.P, c.S.User, "/d")
		if c.must(err, "readdir") {
			if len(ents) != 1 || ents[0].Name != "f2" {
				c.Errorf("entries = %v, want just f2", ents)
			}
		}
	}},

	{name: "StatFSCounts", fn: func(c *C) {
		before, err := c.M.StatFS(c.P, c.S.User)
		c.must(err, "statfs before")
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.create(c.S.User, "/d/f1", 0644)
		c.create(c.S.User, "/d/f2", 0644)
		after, err := c.M.StatFS(c.P, c.S.User)
		if c.must(err, "statfs after") {
			if after.Files != before.Files+3 {
				c.Errorf("files = %d, want %d", after.Files, before.Files+3)
			}
			if after.Dirs != before.Dirs+1 {
				c.Errorf("dirs = %d, want %d", after.Dirs, before.Dirs+1)
			}
		}
	}},

	{name: "UtimeUpdatesTimes", fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		c.P.Sleep(time.Millisecond)
		before := c.P.Now()
		attr, err := c.M.Utime(c.P, c.S.User, "/f")
		if c.must(err, "utime") && attr.Mtime < before {
			c.Errorf("mtime = %v, want >= %v", attr.Mtime, before)
		}
	}},

	{name: "ChmodSetsMode", fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		attr, err := c.M.Chmod(c.P, c.S.User, "/f", 0400)
		if c.must(err, "chmod") && attr.Mode != 0400 {
			c.Errorf("mode = %o, want 0400", attr.Mode)
		}
		attr, err = c.M.Stat(c.P, c.S.User, "/f")
		if c.must(err, "stat") && attr.Mode != 0400 {
			c.Errorf("mode after stat = %o, want 0400", attr.Mode)
		}
	}},

	{name: "RenameOntoItself", fn: func(c *C) {
		// rename("/f", "/f") is a POSIX no-op.
		c.write(c.S.User, "/f", 33)
		c.must(c.M.Rename(c.P, c.S.User, "/f", "/f"), "rename onto itself")
		if got := c.size(c.S.User, "/f"); got != 33 {
			c.Errorf("size after self-rename = %d, want 33", got)
		}
	}},

	{name: "DeepPath", fn: func(c *C) {
		path := ""
		for i := 0; i < 16; i++ {
			path += fmt.Sprintf("/lvl%02d", i)
		}
		c.must(c.M.MkdirAll(c.P, c.S.User, path, 0755), "deep mkdirall")
		c.write(c.S.User, path+"/leaf", 9)
		if got := c.size(c.S.User, path+"/leaf"); got != 9 {
			c.Errorf("deep leaf size = %d, want 9", got)
		}
		ents, err := c.M.Readdir(c.P, c.S.User, path)
		if c.must(err, "deep readdir") && len(ents) != 1 {
			c.Errorf("deep dir entries = %d, want 1", len(ents))
		}
	}},

	{name: "LinkAcrossDirs", needs: CapHardlinks, fn: func(c *C) {
		c.must(c.M.MkdirAll(c.P, c.S.User, "/a", 0755), "mkdir a")
		c.must(c.M.MkdirAll(c.P, c.S.User, "/b", 0755), "mkdir b")
		c.write(c.S.User, "/a/f", 21)
		c.must(c.M.Link(c.P, c.S.User, "/a/f", "/b/g"), "link across dirs")
		if got := c.size(c.S.User, "/b/g"); got != 21 {
			c.Errorf("linked size = %d, want 21", got)
		}
		c.must(c.M.Unlink(c.P, c.S.User, "/a/f"), "unlink original")
		if got := c.size(c.S.User, "/b/g"); got != 21 {
			c.Errorf("size after original unlinked = %d, want 21", got)
		}
	}},

	{name: "ReaddirStableOrder", fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		for i := 0; i < 12; i++ {
			c.create(c.S.User, fmt.Sprintf("/d/f%02d", i), 0644)
		}
		a, err := c.M.Readdir(c.P, c.S.User, "/d")
		c.must(err, "first readdir")
		b, err := c.M.Readdir(c.P, c.S.User, "/d")
		c.must(err, "second readdir")
		if fmt.Sprint(a) != fmt.Sprint(b) {
			c.Errorf("readdir order unstable:\n%v\n%v", a, b)
		}
	}},

	{name: "TruncateDirFails", fn: func(c *C) {
		// Setattr size on a directory must not change anything (size is
		// only meaningful for regular files).
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		before, _ := c.M.Stat(c.P, c.S.User, "/d")
		c.M.Truncate(c.P, c.S.User, "/d", 4096) // error or no-op, both fine
		after, err := c.M.Stat(c.P, c.S.User, "/d")
		if c.must(err, "stat after") && after.Size != before.Size {
			c.Errorf("directory size changed by truncate: %d -> %d", before.Size, after.Size)
		}
	}},

	{name: "MtimeAdvancesOnWrite", fn: func(c *C) {
		c.write(c.S.User, "/f", 10)
		first, err := c.M.Stat(c.P, c.S.User, "/f")
		c.must(err, "stat")
		c.P.Sleep(time.Millisecond)
		f, err := c.M.Open(c.P, c.S.User, "/f", vfs.OpenWrite)
		if !c.must(err, "open") {
			return
		}
		if _, err := f.WriteAt(c.P, 0, 10); err != nil {
			c.Errorf("write: %v", err)
		}
		c.must(f.Close(c.P), "close")
		second, err := c.M.Stat(c.P, c.S.User, "/f")
		if c.must(err, "stat after write") && second.Mtime <= first.Mtime {
			c.Errorf("mtime did not advance: %v -> %v", first.Mtime, second.Mtime)
		}
	}},

	{name: "RenameAcrossDirsOverOpenHandle", fn: func(c *C) {
		// POSIX: renaming a file does not disturb open handles on it —
		// writes through a handle taken under the old name must land in
		// the object now visible under the new name (a COFS rename is
		// service-only and the underlying mapping is by file id, so
		// this pins that the handle's data path survives the move).
		c.must(c.M.Mkdir(c.P, c.S.User, "/a", 0755), "mkdir a")
		c.must(c.M.Mkdir(c.P, c.S.User, "/b", 0755), "mkdir b")
		f, err := c.M.Create(c.P, c.S.User, "/a/f", 0644)
		if !c.must(err, "create /a/f") {
			return
		}
		if _, err := f.WriteAt(c.P, 0, 100); err != nil {
			c.Errorf("write before rename: %v", err)
		}
		c.must(c.M.Rename(c.P, c.S.User, "/a/f", "/b/g"), "rename over open handle")
		if _, err := f.WriteAt(c.P, 100, 28); err != nil {
			c.Errorf("write through handle after rename: %v", err)
		}
		c.must(f.Close(c.P), "close after rename")
		if got := c.size(c.S.User, "/b/g"); got != 128 {
			c.Errorf("size under new name = %d, want 128", got)
		}
		_, err = c.M.Stat(c.P, c.S.User, "/a/f")
		c.wantErr(err, vfs.ErrNotExist, "old name after rename")
	}},

	{name: "HardLinkRemoveOneNameVisibility", needs: CapHardlinks, fn: func(c *C) {
		// Hard link, then remove one name: the object stays fully
		// visible through the other name (content and attributes), and
		// removing the last name makes both resolve to ENOENT.
		c.write(c.S.User, "/a", 96)
		c.must(c.M.Link(c.P, c.S.User, "/a", "/b"), "link")
		c.must(c.M.Unlink(c.P, c.S.User, "/b"), "unlink second name")
		attr, err := c.M.Stat(c.P, c.S.User, "/a")
		if c.must(err, "stat survivor") {
			if attr.Nlink != 1 {
				c.Errorf("nlink after removing one name = %d, want 1", attr.Nlink)
			}
			if attr.Size != 96 {
				c.Errorf("size via survivor = %d, want 96", attr.Size)
			}
		}
		f, err := c.M.Open(c.P, c.S.User, "/a", vfs.OpenRead)
		if c.must(err, "open survivor") {
			if got, err := f.ReadAt(c.P, 0, 96); err != nil || got != 96 {
				c.Errorf("read survivor: got (%d, %v), want (96, nil)", got, err)
			}
			c.must(f.Close(c.P), "close")
		}
		c.must(c.M.Unlink(c.P, c.S.User, "/a"), "unlink last name")
		_, err = c.M.Stat(c.P, c.S.User, "/a")
		c.wantErr(err, vfs.ErrNotExist, "first name after last unlink")
		_, err = c.M.Stat(c.P, c.S.User, "/b")
		c.wantErr(err, vfs.ErrNotExist, "second name after last unlink")
	}},

	{name: "RmdirNonEmptyDeep", fn: func(c *C) {
		// ENOTEMPTY must also fire when the only entry is a
		// subdirectory, and clearing it bottom-up must succeed.
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.must(c.M.Mkdir(c.P, c.S.User, "/d/sub", 0755), "mkdir sub")
		c.wantErr(c.M.Rmdir(c.P, c.S.User, "/d"), vfs.ErrNotEmpty, "rmdir with subdir")
		c.must(c.M.Rmdir(c.P, c.S.User, "/d/sub"), "rmdir subdir")
		c.must(c.M.Rmdir(c.P, c.S.User, "/d"), "rmdir emptied dir")
		_, err := c.M.Stat(c.P, c.S.User, "/d")
		c.wantErr(err, vfs.ErrNotExist, "stat removed dir")
	}},

	{name: "RenameDirOntoEmptyDirSameParentNlink", fn: func(c *C) {
		// Replacing a sibling directory removes one subdirectory from
		// the shared parent: its nlink must drop by exactly one.
		c.must(c.M.Mkdir(c.P, c.S.User, "/p", 0755), "mkdir p")
		c.must(c.M.Mkdir(c.P, c.S.User, "/p/a", 0755), "mkdir p/a")
		c.must(c.M.Mkdir(c.P, c.S.User, "/p/b", 0755), "mkdir p/b")
		before, err := c.M.Stat(c.P, c.S.User, "/p")
		c.must(err, "stat parent before")
		c.must(c.M.Rename(c.P, c.S.User, "/p/a", "/p/b"), "rename dir onto sibling dir")
		after, err := c.M.Stat(c.P, c.S.User, "/p")
		if c.must(err, "stat parent after") && after.Nlink != before.Nlink-1 {
			c.Errorf("parent nlink = %d, want %d", after.Nlink, before.Nlink-1)
		}
	}},

	{name: "RenameFileOntoNonEmptyDir", fn: func(c *C) {
		// A file renamed onto a directory is EISDIR regardless of
		// whether the directory is empty.
		c.create(c.S.User, "/f", 0644)
		c.must(c.M.Mkdir(c.P, c.S.User, "/d", 0755), "mkdir")
		c.create(c.S.User, "/d/x", 0644)
		c.wantErr(c.M.Rename(c.P, c.S.User, "/f", "/d"), vfs.ErrIsDir, "file onto non-empty dir")
	}},

	{name: "RenameDirOntoDirWithSubdir", needs: CapRenameOverNonempty, fn: func(c *C) {
		// A directory whose only entry is a subdirectory is still
		// non-empty for rename-replacement; emptying it unblocks the
		// rename and the moved directory keeps its contents.
		c.must(c.M.Mkdir(c.P, c.S.User, "/a", 0755), "mkdir a")
		c.create(c.S.User, "/a/keep", 0644)
		c.must(c.M.Mkdir(c.P, c.S.User, "/b", 0755), "mkdir b")
		c.must(c.M.Mkdir(c.P, c.S.User, "/b/sub", 0755), "mkdir b/sub")
		c.wantErr(c.M.Rename(c.P, c.S.User, "/a", "/b"), vfs.ErrNotEmpty, "dir onto dir with subdir")
		c.must(c.M.Rmdir(c.P, c.S.User, "/b/sub"), "clear target")
		c.must(c.M.Rename(c.P, c.S.User, "/a", "/b"), "rename onto emptied dir")
		if _, err := c.M.Stat(c.P, c.S.User, "/b/keep"); err != nil {
			c.Errorf("moved child missing: %v", err)
		}
		_, err := c.M.Stat(c.P, c.S.User, "/a")
		c.wantErr(err, vfs.ErrNotExist, "source after rename")
	}},

	// ---- permission battery (skipped on non-enforcing systems) ----

	{name: "PermOpenWriteDeniedByMode", needs: CapPermissions, fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		_, err := c.M.Chmod(c.P, c.S.User, "/f", 0400)
		c.must(err, "chmod 0400")
		_, oerr := c.M.Open(c.P, c.S.User, "/f", vfs.OpenWrite)
		c.wantErr(oerr, vfs.ErrPerm, "owner opens 0400 file for write")
		f, rerr := c.M.Open(c.P, c.S.User, "/f", vfs.OpenRead)
		if c.must(rerr, "owner opens 0400 file for read") {
			c.must(f.Close(c.P), "close")
		}
	}},

	{name: "PermOtherUserReadDenied", needs: CapPermissions, fn: func(c *C) {
		c.create(c.S.User, "/private", 0600)
		_, err := c.M.Open(c.P, c.S.Other, "/private", vfs.OpenRead)
		c.wantErr(err, vfs.ErrPerm, "other user reads 0600 file")
	}},

	{name: "PermGroupBitApplies", needs: CapPermissions, fn: func(c *C) {
		// Other shares no uid; give it the file's gid via a same-group
		// context and check the group-read bit is honoured.
		c.create(c.S.User, "/shared", 0640)
		same := c.S.Other
		same.GID = c.S.User.GID
		f, err := c.M.Open(c.P, same, "/shared", vfs.OpenRead)
		if c.must(err, "group member reads 0640 file") {
			c.must(f.Close(c.P), "close")
		}
		_, werr := c.M.Open(c.P, same, "/shared", vfs.OpenWrite)
		c.wantErr(werr, vfs.ErrPerm, "group member writes 0640 file")
	}},

	{name: "PermChmodByNonOwner", needs: CapPermissions, fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		_, err := c.M.Chmod(c.P, c.S.Other, "/f", 0777)
		c.wantErr(err, vfs.ErrPerm, "chmod by non-owner")
	}},

	{name: "PermChownByNonRoot", needs: CapPermissions, fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		_, err := c.M.Chown(c.P, c.S.User, "/f", c.S.Other.UID, c.S.Other.GID)
		c.wantErr(err, vfs.ErrPerm, "chown by non-root")
	}},

	{name: "PermChownByRoot", needs: CapPermissions, fn: func(c *C) {
		c.create(c.S.User, "/f", 0644)
		attr, err := c.M.Chown(c.P, c.S.Root, "/f", c.S.Other.UID, c.S.Other.GID)
		if c.must(err, "chown by root") {
			if attr.UID != c.S.Other.UID || attr.GID != c.S.Other.GID {
				c.Errorf("owner = %d:%d, want %d:%d", attr.UID, attr.GID, c.S.Other.UID, c.S.Other.GID)
			}
		}
	}},

	{name: "PermCreateInReadOnlyDir", needs: CapPermissions, fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/ro", 0555), "mkdir 0555")
		_, err := c.M.Create(c.P, c.S.Other, "/ro/f", 0644)
		c.wantErr(err, vfs.ErrPerm, "create in read-only dir")
	}},

	{name: "PermUnlinkInOthersDir", needs: CapPermissions, fn: func(c *C) {
		c.must(c.M.Mkdir(c.P, c.S.User, "/mine", 0755), "mkdir")
		c.create(c.S.User, "/mine/f", 0644)
		c.wantErr(c.M.Unlink(c.P, c.S.Other, "/mine/f"), vfs.ErrPerm, "unlink in 0755 dir by other")
	}},

	{name: "PermRootBypasses", needs: CapPermissions, fn: func(c *C) {
		c.create(c.S.User, "/private", 0600)
		f, err := c.M.Open(c.P, c.S.Root, "/private", vfs.OpenRead)
		if c.must(err, "root reads 0600 file") {
			c.must(f.Close(c.P), "close")
		}
	}},
}
