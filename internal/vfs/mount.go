package vfs

import (
	"math/rand"
	"time"

	"cofs/internal/lru"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// Mount gives applications a path-based POSIX-ish view of a Filesystem,
// playing the role of the kernel: it walks paths (with a dentry cache,
// like the dcache), tracks open files, and charges the user/kernel
// crossing costs of the FUSE transport when the mounted file system is a
// userspace daemon (CrossingTime > 0). A bare kernel file system mounts
// with zero FUSE parameters.
type Mount struct {
	fs   Filesystem
	fuse params.FUSEParams

	dcache *lru.Cache[dcacheKey, dcacheEntry]
	// jitter is the Stream("fuse.jitter") handle, resolved on first use;
	// cross() draws from it once per request.
	jitter *rand.Rand

	Ops int64
}

type dcacheKey struct {
	dir  Ino
	name string
}

type dcacheEntry struct {
	ino Ino
	at  int64 // virtual ns at insertion, for EntryTimeout expiry
}

// NewMount mounts fs. Pass a zero FUSEParams for an in-kernel file system;
// pass the calibrated FUSE parameters for a userspace (COFS-style) layer.
func NewMount(fs Filesystem, fuse params.FUSEParams) *Mount {
	return &Mount{
		fs:     fs,
		fuse:   fuse,
		dcache: lru.New[dcacheKey, dcacheEntry](16384),
	}
}

// FS returns the mounted filesystem.
func (m *Mount) FS() Filesystem { return m.fs }

// cross charges one request's transport cost through the mount. The
// crossing cost carries ±20% deterministic jitter (scheduling noise of
// the userspace daemon); without it, simulated clients stay in perfect
// lockstep and arrive at servers in synchronized bursts no real system
// produces.
func (m *Mount) cross(p *sim.Proc) {
	m.Ops++
	if m.fuse.CrossingTime > 0 {
		if m.jitter == nil {
			m.jitter = p.Env().Stream("fuse.jitter")
		}
		base := float64(m.fuse.CrossingTime)
		jitter := 0.8 + 0.4*m.jitter.Float64()
		p.Sleep(time.Duration(base * jitter))
	}
}

// copyCost charges the extra userspace buffer copy for n data bytes.
func (m *Mount) copyCost(p *sim.Proc, n int64) {
	if m.fuse.CopyRate > 0 && n > 0 {
		p.Sleep(byteTime(n, m.fuse.CopyRate))
	}
}

func byteTime(n int64, rate float64) time.Duration {
	return time.Duration(float64(n) / rate * 1e9)
}

// dcacheGet returns a cached, unexpired name resolution.
func (m *Mount) dcacheGet(p *sim.Proc, key dcacheKey) (Ino, bool) {
	e, ok := m.dcache.Get(key)
	if !ok {
		return InvalidIno, false
	}
	if m.fuse.EntryTimeout > 0 && p.Now()-time.Duration(e.at) > m.fuse.EntryTimeout {
		m.dcache.Remove(key)
		return InvalidIno, false
	}
	return e.ino, true
}

func (m *Mount) dcachePut(p *sim.Proc, key dcacheKey, ino Ino) {
	m.dcache.Put(key, dcacheEntry{ino: ino, at: int64(p.Now())})
}

// Walk resolves path to an inode. Absolute and relative forms are both
// resolved from the root. Interior symlinks are not followed (the
// harnesses do not create them on directories).
func (m *Mount) Walk(p *sim.Proc, ctx Ctx, path string) (Ino, error) {
	dir := m.fs.Root()
	for it := pathComponents(path); ; {
		name, ok := it.next()
		if !ok {
			return dir, nil
		}
		if len(name) > MaxNameLen {
			return InvalidIno, ErrNameTooLong
		}
		key := dcacheKey{dir: dir, name: name}
		if ino, ok := m.dcacheGet(p, key); ok {
			dir = ino
			continue
		}
		m.cross(p)
		attr, err := m.fs.Lookup(p, ctx, dir, name)
		if err != nil {
			return InvalidIno, err
		}
		m.dcachePut(p, key, attr.Ino)
		dir = attr.Ino
	}
}

// WalkParent resolves the parent directory of path and returns it with
// the final component.
func (m *Mount) WalkParent(p *sim.Proc, ctx Ctx, path string) (Ino, string, error) {
	dirPath, name, ok := splitLast(path)
	if !ok {
		return InvalidIno, "", ErrInvalid
	}
	if len(name) > MaxNameLen {
		return InvalidIno, "", ErrNameTooLong
	}
	dir, err := m.Walk(p, ctx, dirPath)
	if err != nil {
		return InvalidIno, "", err
	}
	return dir, name, nil
}

// pathIter yields the meaningful components of a path ("" and "."
// segments are skipped) as substrings — no per-walk slice or string
// allocations, unlike the strings.Split this replaced.
type pathIter struct {
	path string
	pos  int
}

func pathComponents(path string) pathIter { return pathIter{path: path} }

func (it *pathIter) next() (string, bool) {
	for it.pos < len(it.path) {
		start := it.pos
		for it.pos < len(it.path) && it.path[it.pos] != '/' {
			it.pos++
		}
		seg := it.path[start:it.pos]
		it.pos++ // step over the separator
		if seg != "" && seg != "." {
			return seg, true
		}
	}
	return "", false
}

// splitLast splits path into the prefix to walk and its final meaningful
// component. ok is false when the path has no components (root).
func splitLast(path string) (dir, name string, ok bool) {
	end := len(path)
	for end > 0 {
		start := end
		for start > 0 && path[start-1] != '/' {
			start--
		}
		if seg := path[start:end]; seg != "" && seg != "." {
			return path[:start], seg, true
		}
		end = start - 1
	}
	return "", "", false
}

// InvalidatePath drops cached name resolutions along path, forcing the
// next walk to consult the file system (dentry revalidation after a
// remote unlink/rename, as a kernel would do on a stale handle). When an
// intermediate component is not cached (e.g. a concurrent process on the
// same mount already invalidated it), the walk re-resolves it through
// the file system so stale entries deeper in the path are still found.
func (m *Mount) InvalidatePath(p *sim.Proc, ctx Ctx, path string) {
	dir := m.fs.Root()
	for it := pathComponents(path); ; {
		name, ok := it.next()
		if !ok {
			return
		}
		key := dcacheKey{dir: dir, name: name}
		e, ok := m.dcache.Peek(key)
		m.dcache.Remove(key)
		if ok {
			dir = e.ino
			continue
		}
		m.cross(p)
		attr, err := m.fs.Lookup(p, ctx, dir, name)
		if err != nil {
			return
		}
		dir = attr.Ino
	}
}

// retryStale reruns fn once after invalidating path's cached dentries if
// it failed with ErrNotExist — cached resolutions can be stale when
// another node unlinked and re-created the name.
func retryStale[T any](m *Mount, p *sim.Proc, ctx Ctx, path string, fn func() (T, error)) (T, error) {
	v, err := fn()
	if err == ErrNotExist {
		m.InvalidatePath(p, ctx, path)
		return fn()
	}
	return v, err
}

// Stat returns the attributes at path. As with FUSE, a lookup's reply
// carries the attributes (fuse_entry_param), so a stat whose final
// component is not dentry-cached costs a single request.
func (m *Mount) Stat(p *sim.Proc, ctx Ctx, path string) (Attr, error) {
	return retryStale(m, p, ctx, path, func() (Attr, error) {
		dirPath, name, ok := splitLast(path)
		if !ok {
			m.cross(p)
			return m.fs.Getattr(p, ctx, m.fs.Root())
		}
		if len(name) > MaxNameLen {
			return Attr{}, ErrNameTooLong
		}
		dir, err := m.Walk(p, ctx, dirPath)
		if err != nil {
			return Attr{}, err
		}
		key := dcacheKey{dir: dir, name: name}
		if ino, ok := m.dcacheGet(p, key); ok {
			m.cross(p)
			return m.fs.Getattr(p, ctx, ino)
		}
		m.cross(p)
		attr, err := m.fs.Lookup(p, ctx, dir, name)
		if err != nil {
			return Attr{}, err
		}
		m.dcachePut(p, key, attr.Ino)
		return attr, nil
	})
}

// Utime sets access/modification times at path, like utime(2).
func (m *Mount) Utime(p *sim.Proc, ctx Ctx, path string) (Attr, error) {
	return retryStale(m, p, ctx, path, func() (Attr, error) {
		ino, err := m.Walk(p, ctx, path)
		if err != nil {
			return Attr{}, err
		}
		m.cross(p)
		now := p.Now()
		return m.fs.Setattr(p, ctx, ino, SetAttr{HasTimes: true, Atime: now, Mtime: now})
	})
}

// Chmod changes permissions at path.
func (m *Mount) Chmod(p *sim.Proc, ctx Ctx, path string, mode uint32) (Attr, error) {
	return retryStale(m, p, ctx, path, func() (Attr, error) {
		ino, err := m.Walk(p, ctx, path)
		if err != nil {
			return Attr{}, err
		}
		m.cross(p)
		return m.fs.Setattr(p, ctx, ino, SetAttr{HasMode: true, Mode: mode})
	})
}

// Chown changes the owner and group at path, like chown(2).
func (m *Mount) Chown(p *sim.Proc, ctx Ctx, path string, uid, gid uint32) (Attr, error) {
	return retryStale(m, p, ctx, path, func() (Attr, error) {
		ino, err := m.Walk(p, ctx, path)
		if err != nil {
			return Attr{}, err
		}
		m.cross(p)
		return m.fs.Setattr(p, ctx, ino, SetAttr{HasOwner: true, UID: uid, GID: gid})
	})
}

// Truncate sets the size of the file at path.
func (m *Mount) Truncate(p *sim.Proc, ctx Ctx, path string, size int64) error {
	ino, err := m.Walk(p, ctx, path)
	if err != nil {
		return err
	}
	m.cross(p)
	_, err = m.fs.Setattr(p, ctx, ino, SetAttr{HasSize: true, Size: size})
	return err
}

// File is an open file on a Mount.
type File struct {
	m    *Mount
	ctx  Ctx
	ino  Ino
	h    Handle
	open bool
}

// Create creates (or truncates) and opens the file at path.
//
// Create, CreateExcl and Open stay within the compiler's inlining budget
// (named results, one call), so a caller whose *File does not escape
// keeps the File on its own stack.
func (m *Mount) Create(p *sim.Proc, ctx Ctx, path string, mode uint32) (f *File, err error) {
	f = new(File)
	if err = m.createInto(p, ctx, path, mode, f); err != nil {
		f = nil
	}
	return
}

func (m *Mount) createInto(p *sim.Proc, ctx Ctx, path string, mode uint32, f *File) error {
	err := m.CreateExclInto(p, ctx, path, mode, f)
	if err == ErrExist {
		// POSIX O_CREAT without O_EXCL: open and truncate.
		return m.OpenInto(p, ctx, path, OpenWrite|OpenTrunc, f)
	}
	return err
}

// CreateExcl creates and opens the file at path, failing with ErrExist
// if the name exists (POSIX O_CREAT|O_EXCL).
func (m *Mount) CreateExcl(p *sim.Proc, ctx Ctx, path string, mode uint32) (f *File, err error) {
	f = new(File)
	if err = m.CreateExclInto(p, ctx, path, mode, f); err != nil {
		f = nil
	}
	return
}

// CreateExclInto is CreateExcl opening the file into f, which the caller
// owns: a file system stacked on the mount keeps its underlying open
// files by value instead of one heap File each. f is untouched on error.
func (m *Mount) CreateExclInto(p *sim.Proc, ctx Ctx, path string, mode uint32, f *File) error {
	dir, name, err := m.WalkParent(p, ctx, path)
	if err != nil {
		return err
	}
	m.cross(p)
	attr, h, err := m.fs.Create(p, ctx, dir, name, mode)
	if err != nil {
		return err
	}
	m.dcachePut(p, dcacheKey{dir: dir, name: name}, attr.Ino)
	*f = File{m: m, ctx: ctx, ino: attr.Ino, h: h, open: true}
	return nil
}

// Open opens the file at path.
func (m *Mount) Open(p *sim.Proc, ctx Ctx, path string, flags OpenFlags) (f *File, err error) {
	f = new(File)
	if err = m.OpenInto(p, ctx, path, flags, f); err != nil {
		f = nil
	}
	return
}

// OpenInto is Open opening the file into the caller's f (see
// CreateExclInto). f is untouched on error.
func (m *Mount) OpenInto(p *sim.Proc, ctx Ctx, path string, flags OpenFlags, f *File) error {
	_, err := retryStale(m, p, ctx, path, func() (struct{}, error) {
		ino, err := m.Walk(p, ctx, path)
		if err != nil {
			return struct{}{}, err
		}
		m.cross(p)
		h, err := m.fs.Open(p, ctx, ino, flags)
		if err != nil {
			return struct{}{}, err
		}
		*f = File{m: m, ctx: ctx, ino: ino, h: h, open: true}
		return struct{}{}, nil
	})
	return err
}

// Ino returns the file's inode number.
func (f *File) Ino() Ino { return f.ino }

// IsOpen reports whether the file is open: opened and not yet closed.
func (f *File) IsOpen() bool { return f.open }

// ReadAt moves n bytes at offset off, splitting into MaxWrite-sized FUSE
// requests when mounted through a userspace daemon.
func (f *File) ReadAt(p *sim.Proc, off, n int64) (int64, error) {
	return f.transfer(p, off, n, f.m.fs.Read)
}

// WriteAt moves n bytes at offset off.
func (f *File) WriteAt(p *sim.Proc, off, n int64) (int64, error) {
	return f.transfer(p, off, n, f.m.fs.Write)
}

type xferFn func(p *sim.Proc, ctx Ctx, h Handle, off, n int64) (int64, error)

func (f *File) transfer(p *sim.Proc, off, n int64, op xferFn) (int64, error) {
	if !f.open {
		return 0, ErrBadHandle
	}
	if n < 0 || off < 0 {
		return 0, ErrInvalid
	}
	chunk := f.m.fuse.MaxWrite
	if chunk <= 0 {
		chunk = n
	}
	var moved int64
	for moved < n {
		sz := n - moved
		if sz > chunk {
			sz = chunk
		}
		f.m.cross(p)
		f.m.copyCost(p, sz)
		got, err := op(p, f.ctx, f.h, off+moved, sz)
		moved += got
		if err != nil {
			return moved, err
		}
		if got < sz {
			break // short transfer (EOF)
		}
	}
	return moved, nil
}

// Fsync flushes the file's dirty data.
func (f *File) Fsync(p *sim.Proc) error {
	if !f.open {
		return ErrBadHandle
	}
	f.m.cross(p)
	return f.m.fs.Fsync(p, f.ctx, f.h)
}

// Close releases the file.
func (f *File) Close(p *sim.Proc) error {
	if !f.open {
		return ErrBadHandle
	}
	f.open = false
	f.m.cross(p)
	return f.m.fs.Release(p, f.ctx, f.h)
}

// Mkdir creates a directory at path.
func (m *Mount) Mkdir(p *sim.Proc, ctx Ctx, path string, mode uint32) error {
	dir, name, err := m.WalkParent(p, ctx, path)
	if err != nil {
		return err
	}
	m.cross(p)
	attr, err := m.fs.Mkdir(p, ctx, dir, name, mode)
	if err != nil {
		return err
	}
	m.dcachePut(p, dcacheKey{dir: dir, name: name}, attr.Ino)
	return nil
}

// MkdirAll creates path and any missing parents.
func (m *Mount) MkdirAll(p *sim.Proc, ctx Ctx, path string, mode uint32) error {
	for it := pathComponents(path); ; {
		if _, ok := it.next(); !ok {
			return nil
		}
		// it.pos sits just past the component's separator; the prefix up
		// to here names the directory level to create.
		err := m.Mkdir(p, ctx, path[:min(it.pos, len(path))], mode)
		if err != nil && err != ErrExist {
			return err
		}
	}
}

// Rmdir removes the empty directory at path.
func (m *Mount) Rmdir(p *sim.Proc, ctx Ctx, path string) error {
	dir, name, err := m.WalkParent(p, ctx, path)
	if err != nil {
		return err
	}
	m.cross(p)
	if err := m.fs.Rmdir(p, ctx, dir, name); err != nil {
		return err
	}
	m.dcache.Remove(dcacheKey{dir: dir, name: name})
	return nil
}

// Unlink removes the file at path.
func (m *Mount) Unlink(p *sim.Proc, ctx Ctx, path string) error {
	dir, name, err := m.WalkParent(p, ctx, path)
	if err != nil {
		return err
	}
	m.cross(p)
	if err := m.fs.Unlink(p, ctx, dir, name); err != nil {
		return err
	}
	m.dcache.Remove(dcacheKey{dir: dir, name: name})
	return nil
}

// Rename moves src to dst.
func (m *Mount) Rename(p *sim.Proc, ctx Ctx, src, dst string) error {
	sd, sn, err := m.WalkParent(p, ctx, src)
	if err != nil {
		return err
	}
	dd, dn, err := m.WalkParent(p, ctx, dst)
	if err != nil {
		return err
	}
	m.cross(p)
	if err := m.fs.Rename(p, ctx, sd, sn, dd, dn); err != nil {
		return err
	}
	m.dcache.Remove(dcacheKey{dir: sd, name: sn})
	m.dcache.Remove(dcacheKey{dir: dd, name: dn})
	return nil
}

// Link creates a hard link at newPath pointing to the file at oldPath.
func (m *Mount) Link(p *sim.Proc, ctx Ctx, oldPath, newPath string) error {
	ino, err := m.Walk(p, ctx, oldPath)
	if err != nil {
		return err
	}
	dir, name, err := m.WalkParent(p, ctx, newPath)
	if err != nil {
		return err
	}
	m.cross(p)
	attr, err := m.fs.Link(p, ctx, ino, dir, name)
	if err != nil {
		return err
	}
	m.dcachePut(p, dcacheKey{dir: dir, name: name}, attr.Ino)
	return nil
}

// Symlink creates a symbolic link at path holding target.
func (m *Mount) Symlink(p *sim.Proc, ctx Ctx, target, path string) error {
	dir, name, err := m.WalkParent(p, ctx, path)
	if err != nil {
		return err
	}
	m.cross(p)
	_, err = m.fs.Symlink(p, ctx, dir, name, target)
	return err
}

// Readlink reads the symlink at path.
func (m *Mount) Readlink(p *sim.Proc, ctx Ctx, path string) (string, error) {
	ino, err := m.Walk(p, ctx, path)
	if err != nil {
		return "", err
	}
	m.cross(p)
	return m.fs.Readlink(p, ctx, ino)
}

// Readdir lists the directory at path.
func (m *Mount) Readdir(p *sim.Proc, ctx Ctx, path string) ([]DirEntry, error) {
	ino, err := m.Walk(p, ctx, path)
	if err != nil {
		return nil, err
	}
	m.cross(p)
	ents, err := m.fs.Readdir(p, ctx, ino)
	if err != nil {
		return nil, err
	}
	// Prime the dentry cache with the listing (READDIRPLUS style): a
	// following per-entry stat sweep resolves names without Lookup
	// round trips, subject to the usual entry timeout.
	for _, e := range ents {
		m.dcachePut(p, dcacheKey{dir: ino, name: e.Name}, e.Ino)
	}
	return ents, nil
}

// StatFS reports filesystem-wide counters.
func (m *Mount) StatFS(p *sim.Proc, ctx Ctx) (Statfs, error) {
	m.cross(p)
	return m.fs.StatFS(p, ctx)
}

// InvalidateDcache drops all cached name resolutions (used by tests and
// by failover examples after a service restart).
func (m *Mount) InvalidateDcache() { m.dcache.Clear() }
