package main

import (
	"time"

	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// Layers the benchmark records spans for, from outside, at the
// boundaries it can reach through exported API. The numeric order is
// the nesting order: an op spans core.FS calls, which span pfs.Client
// calls. Spans the program's own tracer records (op.*, rpc.*, ...) sit
// between layerCore and layerPFS.
const (
	layerOp     = iota // one replayed trace operation at the Mount boundary
	layerCore          // one vfs.Filesystem call into core.FS
	layerTracer        // a span of the program's own obs.Tracer
	layerPFS           // one vfs.Filesystem call into pfs.Client
)

var layerNames = [...]string{"mount", "core", "tracer", "pfs"}

// span is one recorded interval on one simulated process. Parent is the
// id of the enclosing benchmark span (-1 for an op); Op is the index of
// the trace operation the span belongs to.
type span struct {
	ID     int32
	Parent int32
	Op     int32
	Layer  uint8
	Name   string
	Start  time.Duration
	End    time.Duration
}

// spanLog holds the benchmark's own spans of one traced pass, per
// simulated process, in the order they were opened.
type spanLog struct {
	byProc map[*sim.Proc]*procSpans
	procs  []*procSpans
	nextID int32
}

type procSpans struct {
	name  string
	spans []span
	open  []int32 // indexes into spans of the currently open ones
	op    int32   // index of the trace operation being replayed
}

func newSpanLog() *spanLog { return &spanLog{byProc: make(map[*sim.Proc]*procSpans)} }

func (l *spanLog) of(p *sim.Proc) *procSpans {
	ps := l.byProc[p]
	if ps == nil {
		ps = &procSpans{name: p.Name(), op: -1}
		l.byProc[p] = ps
		l.procs = append(l.procs, ps)
	}
	return ps
}

// begin opens a span on p's track and returns its index for end.
func (l *spanLog) begin(p *sim.Proc, layer uint8, name string) (*procSpans, int32) {
	ps := l.of(p)
	parent := int32(-1)
	if n := len(ps.open); n > 0 {
		parent = ps.spans[ps.open[n-1]].ID
	}
	ps.spans = append(ps.spans, span{ID: l.nextID, Parent: parent, Op: ps.op, Layer: layer, Name: name, Start: p.Now()})
	l.nextID++
	idx := int32(len(ps.spans) - 1)
	ps.open = append(ps.open, idx)
	return ps, idx
}

func (ps *procSpans) end(p *sim.Proc, idx int32) {
	ps.spans[idx].End = p.Now()
	ps.open = ps.open[:len(ps.open)-1]
}

// timedFS decorates a vfs.Filesystem: every call is forwarded unchanged
// and recorded as one span of the given layer. It charges no virtual
// time, so a decorated stack runs the same simulation as a bare one.
type timedFS struct {
	inner vfs.Filesystem
	log   *spanLog
	layer uint8
	// Calls counts forwarded calls per method name (tests and the
	// under-call counter).
	Calls map[string]int64
}

var _ vfs.Filesystem = (*timedFS)(nil)

func newTimedFS(inner vfs.Filesystem, log *spanLog, layer uint8) *timedFS {
	return &timedFS{inner: inner, log: log, layer: layer, Calls: make(map[string]int64)}
}

func (t *timedFS) enter(p *sim.Proc, name string) (*procSpans, int32) {
	t.Calls[name]++
	return t.log.begin(p, t.layer, name)
}

func (t *timedFS) Root() vfs.Ino {
	t.Calls["root"]++
	return t.inner.Root()
}

func (t *timedFS) Lookup(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) (vfs.Attr, error) {
	ps, i := t.enter(p, "lookup")
	defer ps.end(p, i)
	return t.inner.Lookup(p, ctx, dir, name)
}

func (t *timedFS) Getattr(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino) (vfs.Attr, error) {
	ps, i := t.enter(p, "getattr")
	defer ps.end(p, i)
	return t.inner.Getattr(p, ctx, ino)
}

func (t *timedFS) Setattr(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, set vfs.SetAttr) (vfs.Attr, error) {
	ps, i := t.enter(p, "setattr")
	defer ps.end(p, i)
	return t.inner.Setattr(p, ctx, ino, set)
}

func (t *timedFS) Create(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32) (vfs.Attr, vfs.Handle, error) {
	ps, i := t.enter(p, "create")
	defer ps.end(p, i)
	return t.inner.Create(p, ctx, dir, name, mode)
}

func (t *timedFS) Open(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	ps, i := t.enter(p, "open")
	defer ps.end(p, i)
	return t.inner.Open(p, ctx, ino, flags)
}

func (t *timedFS) Release(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle) error {
	ps, i := t.enter(p, "release")
	defer ps.end(p, i)
	return t.inner.Release(p, ctx, h)
}

func (t *timedFS) Read(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle, off, n int64) (int64, error) {
	ps, i := t.enter(p, "read")
	defer ps.end(p, i)
	return t.inner.Read(p, ctx, h, off, n)
}

func (t *timedFS) Write(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle, off, n int64) (int64, error) {
	ps, i := t.enter(p, "write")
	defer ps.end(p, i)
	return t.inner.Write(p, ctx, h, off, n)
}

func (t *timedFS) Fsync(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle) error {
	ps, i := t.enter(p, "fsync")
	defer ps.end(p, i)
	return t.inner.Fsync(p, ctx, h)
}

func (t *timedFS) Mkdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32) (vfs.Attr, error) {
	ps, i := t.enter(p, "mkdir")
	defer ps.end(p, i)
	return t.inner.Mkdir(p, ctx, dir, name, mode)
}

func (t *timedFS) Rmdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) error {
	ps, i := t.enter(p, "rmdir")
	defer ps.end(p, i)
	return t.inner.Rmdir(p, ctx, dir, name)
}

func (t *timedFS) Unlink(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) error {
	ps, i := t.enter(p, "unlink")
	defer ps.end(p, i)
	return t.inner.Unlink(p, ctx, dir, name)
}

func (t *timedFS) Rename(p *sim.Proc, ctx vfs.Ctx, srcDir vfs.Ino, srcName string, dstDir vfs.Ino, dstName string) error {
	ps, i := t.enter(p, "rename")
	defer ps.end(p, i)
	return t.inner.Rename(p, ctx, srcDir, srcName, dstDir, dstName)
}

func (t *timedFS) Link(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, dir vfs.Ino, name string) (vfs.Attr, error) {
	ps, i := t.enter(p, "link")
	defer ps.end(p, i)
	return t.inner.Link(p, ctx, ino, dir, name)
}

func (t *timedFS) Symlink(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name, target string) (vfs.Attr, error) {
	ps, i := t.enter(p, "symlink")
	defer ps.end(p, i)
	return t.inner.Symlink(p, ctx, dir, name, target)
}

func (t *timedFS) Readlink(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino) (string, error) {
	ps, i := t.enter(p, "readlink")
	defer ps.end(p, i)
	return t.inner.Readlink(p, ctx, ino)
}

func (t *timedFS) Readdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino) ([]vfs.DirEntry, error) {
	ps, i := t.enter(p, "readdir")
	defer ps.end(p, i)
	return t.inner.Readdir(p, ctx, dir)
}

func (t *timedFS) StatFS(p *sim.Proc, ctx vfs.Ctx) (vfs.Statfs, error) {
	ps, i := t.enter(p, "statfs")
	defer ps.end(p, i)
	return t.inner.StatFS(p, ctx)
}
