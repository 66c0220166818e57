// Package core implements COFS (COmposite File System), the paper's
// contribution: a virtualization layer that decouples the user-visible
// namespace and its metadata from the underlying file system layout
// (section III).
//
//   - The placement driver (this file) maps every regular file created in
//     the virtual tree to an underlying path computed from a hash of the
//     creating node, the virtual parent directory and the creating
//     process, plus a randomization level, capping underlying directories
//     at MaxEntriesPerDir (512 in the paper) — so parallel creates into
//     one shared virtual directory land in many small, mostly
//     node-private underlying directories. Mostly: the hash is reduced
//     mod Fanout, so buckets of different nodes do collide (about 30
//     pairs among 64 streams at 1024 buckets), and because each client
//     counts only its own entries (FS.buckets) MaxEntriesPerDir is a
//     per-client cap that a shared bucket can exceed.
//   - The metadata driver and service (service.go) keep the virtual
//     hierarchy and file attributes in Mnesia-style tables, and record
//     each file's underlying path as its creating client named it; they
//     make no placement decision.
//   - The COFS file system (fs.go) implements vfs.Filesystem on each
//     client, forwarding namespace/attribute operations to the service
//     and data operations to the underlying file system.
package core

import (
	"hash/fnv"
	"strconv"

	"cofs/internal/vfs"
)

// Placement computes the underlying bucket directory for a new file.
// Implementations must be deterministic in their inputs; the rnd value
// (supplied by the caller from a seeded stream) provides the paper's
// randomization factor.
type Placement interface {
	// AppendBucketDir appends to b the underlying directory (relative to
	// the COFS object root) for a file created by (node, pid) in virtual
	// directory parent. rnd is a deterministic random value. A create
	// appends its object's name behind it, so the whole path costs one
	// allocation.
	AppendBucketDir(b []byte, node, pid int, parent vfs.Ino, rnd uint64) []byte
	// InitDirs returns the underlying directories to pre-create at
	// deployment time (the hash level), so that later bucket creation
	// only touches node-private parents instead of contending on the
	// shared top of the object tree.
	InitDirs() []string
	// Name identifies the policy in ablation reports.
	Name() string
}

func hash3(node, pid int, parent vfs.Ino) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	put64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put64(0, uint64(node))
	put64(8, uint64(pid))
	put64(16, uint64(parent))
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// mix64 is a splitmix64-style finalizer: FNV over short, mostly-zero
// inputs leaves visible structure in the low bits, and the bucket index
// is taken mod fanout — without the finalizer, sequential (node, pid,
// parent) triples collapse onto half the buckets.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashPlacement is the paper's policy (section III-B): hash of (creating
// node, virtual parent, creating process) selects the bucket, and a
// randomization level below it spreads files that are created on one
// node but later accessed in parallel.
type HashPlacement struct {
	// Fanout is the number of hash buckets (two hex levels are derived
	// from it).
	Fanout int
	// RandomSubdirs is the number of random subdirectories below the
	// hashed path; 0 or 1 disables the randomization level.
	RandomSubdirs int
}

// AppendBucketDir implements Placement: "o/%03x" and, below it,
// "/r%02d".
func (hp HashPlacement) AppendBucketDir(b []byte, node, pid int, parent vfs.Ino, rnd uint64) []byte {
	fanout := hp.Fanout
	if fanout < 1 {
		fanout = 1
	}
	b = appendPadded(append(b, "o/"...), hash3(node, pid, parent)%uint64(fanout), 16, 3)
	if hp.RandomSubdirs > 1 {
		b = appendPadded(append(b, "/r"...), rnd%uint64(hp.RandomSubdirs), 10, 2)
	}
	return b
}

// appendPadded appends v in base, zero-padded to at least width digits:
// what fmt's %0<width>x and %0<width>d print for an unsigned value.
func appendPadded(b []byte, v uint64, base, width int) []byte {
	var tmp [20]byte
	digits := strconv.AppendUint(tmp[:0], v, base)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// InitDirs implements Placement: the hash level — and, when enabled,
// the randomization level below it — is pre-created at install time, so
// short-lived processes (the paper's bunches of small batch jobs) never
// pay an underlying mkdir on their first creates.
func (hp HashPlacement) InitDirs() []string {
	fanout := hp.Fanout
	if fanout < 1 {
		fanout = 1
	}
	subdirs := max(hp.RandomSubdirs, 1)
	out := make([]string, 0, fanout*subdirs)
	var b []byte
	for i := 0; i < fanout; i++ {
		b = appendPadded(append(b[:0], "o/"...), uint64(i), 16, 3)
		if subdirs == 1 {
			out = append(out, string(b))
			continue
		}
		for r := 0; r < subdirs; r++ {
			out = append(out, string(appendPadded(append(b, "/r"...), uint64(r), 10, 2)))
		}
	}
	return out
}

// Name implements Placement.
func (hp HashPlacement) Name() string { return "hash(node,parent,pid)+random" }

// NodeHashPlacement hashes only the creating node (ablation: no parent
// or process discrimination, no randomization level).
type NodeHashPlacement struct{ Fanout int }

// AppendBucketDir implements Placement: "n/%03x".
func (np NodeHashPlacement) AppendBucketDir(b []byte, node, pid int, parent vfs.Ino, rnd uint64) []byte {
	fanout := np.Fanout
	if fanout < 1 {
		fanout = 1
	}
	return appendPadded(append(b, "n/"...), uint64(node)%uint64(fanout), 16, 3)
}

// InitDirs implements Placement.
func (np NodeHashPlacement) InitDirs() []string {
	fanout := np.Fanout
	if fanout < 1 {
		fanout = 1
	}
	out := make([]string, fanout)
	var b []byte
	for i := range out {
		b = appendPadded(append(b[:0], "n/"...), uint64(i), 16, 3)
		out[i] = string(b)
	}
	return out
}

// Name implements Placement.
func (np NodeHashPlacement) Name() string { return "hash(node)" }

// FlatPlacement sends every file to one shared underlying directory —
// the no-virtualization baseline: the underlying file system sees the
// same hot directory the applications created.
type FlatPlacement struct{}

// AppendBucketDir implements Placement.
func (FlatPlacement) AppendBucketDir(b []byte, node, pid int, parent vfs.Ino, rnd uint64) []byte {
	return append(b, "flat"...)
}

// InitDirs implements Placement.
func (FlatPlacement) InitDirs() []string { return []string{"flat"} }

// Name implements Placement.
func (FlatPlacement) Name() string { return "flat (single shared dir)" }
