package core

import (
	"cofs/internal/lock"
	"cofs/internal/vfs"
)

// RowLocks exposes the plane's row-lock table to the external tests,
// which watch its grants (RowLocks.OnGrant) and holders.
func (c *MDSCluster) RowLocks() *lock.RowLocks { return c.rowLocks }

// BucketDir returns pl's bucket directory for (node, pid, parent, rnd)
// as a string, for the placement tests.
func BucketDir(pl Placement, node, pid int, parent vfs.Ino, rnd uint64) string {
	return string(pl.AppendBucketDir(nil, node, pid, parent, rnd))
}
