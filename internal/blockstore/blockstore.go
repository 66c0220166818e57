// Package blockstore models the NSD-like striped data path of the
// GPFS-like file system: file contents are striped round-robin across the
// file servers' disks, and a single logical transfer fans out across
// servers in parallel — the source of the aggregate-bandwidth behaviour
// measured by the IOR experiments (Table I).
package blockstore

import (
	"cofs/internal/disk"
	"cofs/internal/netsim"
	"cofs/internal/sim"
)

// Store is the striped block store.
type Store struct {
	net        *netsim.Net
	servers    []*netsim.Host
	disks      []*disk.Disk
	stripeSize int64

	BytesRead    int64
	BytesWritten int64
}

// Stripe identifies one striping unit of one file.
type Stripe struct {
	Ino uint64
	Idx int64
}

// New creates a store over the given server hosts and their disks
// (parallel slices) with the given stripe size.
func New(net *netsim.Net, servers []*netsim.Host, disks []*disk.Disk, stripeSize int64) *Store {
	if len(servers) == 0 || len(servers) != len(disks) {
		panic("blockstore: servers and disks must be non-empty parallel slices")
	}
	if stripeSize <= 0 {
		panic("blockstore: stripe size must be positive")
	}
	return &Store{net: net, servers: servers, disks: disks, stripeSize: stripeSize}
}

// StripeSize returns the striping unit.
func (s *Store) StripeSize() int64 { return s.stripeSize }

// serverOf maps a stripe to its server index (round-robin per file with a
// per-file rotation so files start on different servers).
func (s *Store) serverOf(st Stripe) int {
	return int((int64(st.Ino) + st.Idx) % int64(len(s.servers)))
}

// diskPos gives the stripe a stable disk position so sequential stripes
// of one file are sequential on disk.
func (s *Store) diskPos(st Stripe) int64 {
	return int64(st.Ino)<<20 + st.Idx
}

// StripeRange returns the half-open range [first, end) of stripe indexes
// covering [off, off+n) of a file; it is empty when n <= 0.
func (s *Store) StripeRange(off, n int64) (first, end int64) {
	if n <= 0 {
		return 0, 0
	}
	return off / s.stripeSize, (off+n-1)/s.stripeSize + 1
}

// Read transfers the given stripes from their servers to the client,
// fanning out across servers in parallel. sizes[i] is the byte count for
// stripes[i] (the boundary stripes of a request may be partial).
func (s *Store) Read(p *sim.Proc, client *netsim.Host, stripes []Stripe, sizes []int64) {
	s.transfer(p, client, stripes, sizes, false)
}

// Write transfers the given stripes from the client to their servers.
func (s *Store) Write(p *sim.Proc, client *netsim.Host, stripes []Stripe, sizes []int64) {
	s.transfer(p, client, stripes, sizes, true)
}

// transfer does not retain stripes or sizes, so callers can pass
// stack-backed slices.
func (s *Store) transfer(p *sim.Proc, client *netsim.Host, stripes []Stripe, sizes []int64, write bool) {
	if len(stripes) != len(sizes) {
		panic("blockstore: stripes/sizes length mismatch")
	}
	if len(stripes) == 0 {
		return
	}
	first, oneServer := s.serverOf(stripes[0]), true
	for i, st := range stripes {
		oneServer = oneServer && s.serverOf(st) == first
		if write {
			s.BytesWritten += sizes[i]
		} else {
			s.BytesRead += sizes[i]
		}
	}
	// One server is one queue: nothing to overlap, so the caller drains
	// it itself.
	if oneServer {
		for i, st := range stripes {
			s.move(p, client, first, st, sizes[i], write)
		}
		return
	}
	// Group stripes by server; each server's queue is drained by one
	// helper process (spawned in first-appearance order) so transfers to
	// different servers overlap while each disk stays serialized.
	type req struct {
		st   Stripe
		size int64
	}
	queues := make([][]req, len(s.servers))
	var order []int
	for i, st := range stripes {
		sv := s.serverOf(st)
		if queues[sv] == nil {
			order = append(order, sv)
		}
		queues[sv] = append(queues[sv], req{st: st, size: sizes[i]})
	}
	wg := sim.NewWaitGroup(p.Env())
	for _, sv := range order {
		wg.Go("stripe-xfer", func(p *sim.Proc) {
			for _, r := range queues[sv] {
				s.move(p, client, sv, r.st, r.size, write)
			}
		})
	}
	wg.Wait(p)
}

// move carries one stripe's bytes between the client and server sv.
func (s *Store) move(p *sim.Proc, client *netsim.Host, sv int, st Stripe, size int64, write bool) {
	pos := s.diskPos(st)
	if write {
		s.net.Transfer(p, client, s.servers[sv], size)
		s.disks[sv].Write(p, pos, size)
	} else {
		s.disks[sv].Read(p, pos, size)
		s.net.Transfer(p, s.servers[sv], client, size)
	}
}
