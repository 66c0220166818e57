package core

import "cofs/internal/lock"

// RowLocks exposes the plane's row-lock table to the external tests,
// which watch its grants (RowLocks.OnGrant) and holders.
func (c *MDSCluster) RowLocks() *lock.RowLocks { return c.rowLocks }
