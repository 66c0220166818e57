// Package store is the metadata-store provider registry: the seam that
// lets a deployment pick its per-shard durability backend by name, the
// way DittoFS selects memory/badger/postgres stores. A provider wires a
// durability engine into the shared table/transaction front-end
// (internal/mdb); `internal/core` deploys shards through Open, and the
// cmd tools expose the choice as a `-store` flag.
//
// Providers register from their package init (the default "mdb" here,
// "mdls" in internal/mdls); registration is init-time only and the
// registry is read-only afterwards, so no locking is needed.
package store

import (
	"fmt"
	"sort"
	"time"

	"cofs/internal/disk"
	"cofs/internal/mdb"
	"cofs/internal/sim"
)

// MetadataStore is the contract a shard's store must satisfy: the
// transaction front-end, the freeze/crash/recover/checkpoint lifecycle,
// and — load-bearing since the plane reshards and promotes standbys —
// the WAL-handoff cursor protocol with its exactly-once ownership
// accounting. *mdb.DB is the one implementation of the front-end; what
// varies per provider is the durability engine behind it.
//
// Transaction (read-write) and View (read-only) share one rule: the
// closure runs without yielding at a single virtual instant — a closure
// that lets the clock advance panics — so it observes the committed
// state of that instant and, for a Transaction, its write set is
// applied and logged in it (as is an ImportHandoff batch). That makes
// every transaction atomic and the history serial with no lock held
// across time; isolation of multi-transaction operations is the
// caller's row locks' job. The closure's operations are charged to the
// caller as one block after it returns, and a Transaction's durable
// commit (the engine's) follows the charge. Freeze/Thaw is the one
// gate: between them no Transaction or ImportHandoff starts and the
// commit sequence stands still; a View runs regardless. Nothing on the
// request path holds the gate across time, so only an engine that
// freezes to compact (mdls) makes writers wait. view_test.go and
// transaction_test.go hold every backend to this.
type MetadataStore interface {
	Transaction(p *sim.Proc, fn func(tx *mdb.Tx))
	View(p *sim.Proc, fn func(tx *mdb.Tx))
	Freeze(p *sim.Proc)
	Thaw(p *sim.Proc)
	Crash()
	Recover(p *sim.Proc)
	Checkpoint(p *sim.Proc)
	WALLen() int
	OwnedWALLen() int
	ImportHandoff(p *sim.Proc, h *mdb.Handoff)
	SealHandoff(n int)
	RetireHandoff(n int)
	EngineName() string
}

var _ MetadataStore = (*mdb.DB)(nil)

// Options carries the deployment knobs a provider may honor.
type Options struct {
	// OpTime is the CPU charge per table operation.
	OpTime time.Duration
	// FlushInterval selects asynchronous log flushing when > 0; how (or
	// whether) a backend uses it is part of its cost model.
	FlushInterval time.Duration
}

// Provider constructs databases for one backend name.
type Provider struct {
	// Name keys the registry and appears in counter headers ("mdb",
	// "mdls", ...).
	Name string
	// New builds a shard database on disk d. d is never nil for a
	// deployment shard.
	New func(env *sim.Env, d *disk.Disk, opt Options) *mdb.DB
	// Doc is a one-line description for tool help and docs.
	Doc string
}

var providers = map[string]Provider{}

// Register adds a provider; call from package init. Duplicate names and
// providers without a constructor panic — both are wiring bugs.
func Register(p Provider) {
	if p.Name == "" || p.New == nil {
		panic("store: provider needs a name and a constructor")
	}
	if _, dup := providers[p.Name]; dup {
		panic("store: duplicate provider " + p.Name)
	}
	providers[p.Name] = p
}

// DefaultName is the backend deployed when none is named.
const DefaultName = "mdb"

// Open builds a database for backend name ("" means DefaultName).
// Unknown names return an error listing what is registered, so a typoed
// -store flag fails fast instead of deploying the default silently.
func Open(name string, env *sim.Env, d *disk.Disk, opt Options) (*mdb.DB, error) {
	if name == "" {
		name = DefaultName
	}
	p, ok := providers[name]
	if !ok {
		return nil, fmt.Errorf("store: unknown backend %q (registered: %v)", name, Names())
	}
	return p.New(env, d, opt), nil
}

// Names lists the registered backends, sorted.
func Names() []string {
	out := make([]string, 0, len(providers))
	for name := range providers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the provider registered under name.
func Lookup(name string) (Provider, bool) {
	p, ok := providers[name]
	return p, ok
}

func init() {
	Register(Provider{
		Name: DefaultName,
		Doc:  "Mnesia-style WAL store: group commit or interval-batched background dumps (the paper's prototype)",
		New: func(env *sim.Env, d *disk.Disk, opt Options) *mdb.DB {
			if opt.FlushInterval > 0 {
				return mdb.NewAsync(env, d, opt.OpTime, opt.FlushInterval)
			}
			return mdb.New(env, d, opt.OpTime)
		},
	})
}
