package params

import "testing"

// TestDefaultSanity pins the structural invariants the model depends on;
// a careless recalibration that breaks one of these would silently
// invalidate the reproduction.
func TestDefaultSanity(t *testing.T) {
	c := Default()
	if c.PFS.Servers < 1 || c.PFS.ServerWorkers < 1 {
		t.Fatal("server counts must be positive")
	}
	if c.PFS.InodesPerBlock < 2 {
		t.Fatal("inode packing must group multiple inodes (the false-sharing unit)")
	}
	if c.PFS.CreateDelegationMaxEntries >= c.PFS.MaxFilesToCache {
		t.Fatal("create delegation knee (512) must sit below the stat cache knee (1024)")
	}
	if c.COFS.MaxEntriesPerDir != 512 {
		t.Fatalf("paper's 512-entry cap changed: %d", c.COFS.MaxEntriesPerDir)
	}
	if c.COFS.MaxEntriesPerDir > c.PFS.CreateDelegationMaxEntries {
		t.Fatal("COFS bucket cap must keep underlying dirs inside the delegated-create region")
	}
	if c.Disk.SeqAccessTime >= c.Disk.AccessTime {
		t.Fatal("sequential access must be cheaper than random")
	}
	if c.Network.EdgeBandwidth <= 0 || c.Network.HopLatency <= 0 {
		t.Fatal("network parameters must be positive")
	}
	if c.FUSE.CrossingTime <= 0 || c.FUSE.MaxWrite <= 0 {
		t.Fatal("FUSE cost model must be enabled for COFS mounts")
	}
	if c.COFS.AttrLease != 0 {
		t.Fatal("client cache must default off to match the paper's prototype")
	}
	if c.COFS.LogFlushInterval <= 0 {
		t.Fatal("the Mnesia-style async log flush must have an interval")
	}
}
