// Package mdb is the Mnesia-style soft-real-time table store backing the
// COFS metadata service (paper, section III-C): named tables with
// primary-key access and secondary indexes, serializable transactions,
// dirty (lock-free) reads, and — for disc-copies tables — a write-ahead
// log with group commit on the service node's local ext3-like disk, plus
// crash recovery.
//
// The log is no-force undo logging on in-memory rows (the no-force half
// of ARIES). The host keeps only the log's tail some reader still needs
// — past the durable cursor, or not yet shipped to a standby — and each
// record carries what undoes it: the row it replaced, or none. A crash
// undoes the unflushed tail and sets the rows aside as the durable
// image; recovery charges the scan of the whole log, as a replay would,
// and puts the image back.
//
// A secondary index keeps each bucket's rows in the row order it was
// registered with, like Mnesia's ordered_set, so an index read
// (IndexRead, Mnesia's index_read) walks the bucket in place: nothing is
// collected or sorted per read.
//
// The store is deliberately single-node (as deployed in the paper).
// Both transaction kinds — read-write (Transaction) and read-only
// snapshot (View) — run their closure without yielding at one virtual
// instant, which under the cooperative scheduler makes each atomic and
// the history serial, and are charged their table operations as one
// block afterwards. The store holds no lock: isolation of an operation
// that spans several transactions is its caller's row locks' job. All
// timing is charged to the calling simulated process.
package mdb

import (
	"fmt"
	"iter"
	"slices"
	"sort"
	"time"

	"cofs/internal/disk"
	"cofs/internal/obs"
	"cofs/internal/sim"
)

// Storage selects a table's durability class, mirroring Mnesia's
// ram_copies vs disc_copies.
type Storage int

// Storage classes.
const (
	RamCopies Storage = iota
	DiscCopies
)

type walOp byte

const (
	walPut walOp = iota
	walDelete
)

// walRec is one logged write. kv is the *entry[K, V] of the named
// table's types; its key and value are immutable once logged, because
// the WAL, a replica's shipping batch and a Handoff may all share it.
type walRec struct {
	table string
	op    walOp
	kv    any
}

// entry is a logged key and value (the value is the zero V for a
// delete) and, once it lands in a DiscCopies table, its undo: the row
// it replaced (prev, if had). Only the database the record lands in
// writes the undo, and only Crash reads it — for the records past the
// durable cursor, of which each entry is at most one.
type entry[K comparable, V any] struct {
	key  K
	val  V
	prev V
	had  bool
}

// entrySlabChunk is the entry count of one slab chunk (Table.rec).
const entrySlabChunk = 256

type table interface {
	name() string
	storage() Storage
	// apply writes rec's row (a standby's apply, a durable record).
	apply(rec walRec)
	// land writes rec's row and keeps its undo in the entry.
	land(rec walRec)
	// undo puts back the row rec replaced.
	undo(rec walRec)
	// crash sets the rows aside as the durable image and clears the
	// table.
	crash()
	// restore puts the durable image back in place of the rows.
	restore()
	clear()
	rows() int
	// copyTo puts every row — the durable image's while one is set
	// aside — into dst, a table of the same types, in key order.
	copyTo(dst table)
}

// DB is a collection of tables sharing a WAL.
type DB struct {
	env    *sim.Env
	disk   *disk.Disk // nil: no durable tables allowed
	opTime time.Duration
	tables map[string]table

	// wal is the durable log; flushed is the commit sequence (CommitSeq)
	// up to which it is on disk, and what a crash keeps. A writer fixes
	// the sequence its disk write covers before the write yields and
	// marks it afterwards (markFlushed), so a record that lands while
	// the write is in flight is never claimed; being a sequence rather
	// than a log offset, it stays right across Checkpoint's rewrite.
	wal     walLog
	flushed int64
	// crashes counts Crash calls. A writer reads it before its disk
	// write yields; if a crash came meanwhile, the log it wrote is gone,
	// so it advances no cursor and rewrites no log.
	crashes int
	// crashed is set from a Crash to the Recover that follows it: the
	// disc tables' durable image is set aside and the records from log
	// offset crashAt on landed since. Nothing folds meanwhile.
	crashed bool
	crashAt int

	// flushInterval > 0 selects Mnesia-style asynchronous log flushing:
	// commits return immediately and a background dump forces the log
	// every interval (transactions committed inside the window are lost
	// by a crash — the soft-real-time trade the paper's prototype
	// makes). flushInterval == 0 forces the log on every commit.
	flushInterval  time.Duration
	flushScheduled bool
	flushFn        func(p *sim.Proc) // flush, bound once (NewAsync)

	// replicas receive committed WAL records (see replica.go).
	replicas []*Replica

	// tx is the one reusable transaction handle: closures are
	// yield-free and cannot nest, so at most one — view or transaction —
	// is open at a time. Its write-set buffer keeps its capacity between
	// transactions.
	tx Tx

	// staged counts WAL records imported by a live row migration but
	// not yet sealed by an epoch install; handedOff counts records
	// whose rows a migration moved to another shard (see handoff.go).
	// Both are bookkeeping over the log's logical length, which
	// Checkpoint rewrites as its image.
	staged    int
	handedOff int

	// seqBase + wal.len() is the database's absolute commit sequence
	// (CommitSeq): a monotone record count that survives Checkpoint's
	// WAL rewrite — the rebase below keeps pre-checkpoint sequences
	// comparable — and rolls back with the truncated tail on Crash,
	// exactly like the state it numbers. A replica measures its lag
	// against it (replica.go).
	seqBase int64

	// trace, when non-nil, stamps WAL spans — wal.commit around a
	// transaction's durable commit, wal.flush on the background dump proc,
	// wal.sync around a handoff import's force — on the acting proc's
	// track; traceGroup labels background procs with this shard's host
	// (SetTrace). Nil by default: no span, no allocation, no cost.
	trace      *obs.Tracer
	traceGroup string

	Commits      int64
	Transactions int64
	Views        int64
	DirtyOps     int64
	LogFlushes   int64
}

// New creates a database with synchronous (force-per-commit) logging.
// d may be nil when only RamCopies tables are used; opTime is the CPU
// charge per table operation.
func New(env *sim.Env, d *disk.Disk, opTime time.Duration) *DB {
	return &DB{
		env:    env,
		disk:   d,
		opTime: opTime,
		tables: make(map[string]table),
	}
}

// SetTrace installs the span tracer on this database. group labels the
// trace tracks of the database's own background procs (the log flusher)
// — pass the owning shard's host name so they render under its process
// lane.
func (db *DB) SetTrace(tr *obs.Tracer, group string) {
	db.trace = tr
	db.traceGroup = group
}

// CommitSeq is the database's absolute commit sequence: the total
// number of WAL records ever appended, monotone across Checkpoint's
// log rewrite and rolled back with the truncated tail on Crash, whether
// or not the host still holds the records. The
// cooperative scheduler makes any observed value transaction-aligned —
// a transaction's records are appended without yielding.
func (db *DB) CommitSeq() int64 { return db.seqBase + int64(db.wal.len()) }

// NewAsync creates a database whose log is flushed in the background
// every interval, mirroring Mnesia's batched disc_copies dumps.
func NewAsync(env *sim.Env, d *disk.Disk, opTime, interval time.Duration) *DB {
	db := New(env, d, opTime)
	db.flushInterval = interval
	db.flushFn = db.flush
	return db
}

// maybeScheduleFlush arms one background flush when unflushed log
// records exist.
func (db *DB) maybeScheduleFlush() {
	if db.flushScheduled || db.flushed >= db.CommitSeq() {
		return
	}
	db.flushScheduled = true
	db.env.SpawnAfter("mdb.logflush", db.flushInterval, db.flushFn)
}

// flush is the background dump: it writes the tail sequentially, syncs,
// and re-arms itself if more records arrived meanwhile.
func (db *DB) flush(p *sim.Proc) {
	target, crashes := db.CommitSeq(), db.crashes
	db.LogFlushes++
	db.trace.Begin(p, db.traceGroup, "wal.flush", -1)
	db.disk.Write(p, 0, (target-db.flushed)*64)
	db.disk.Sync(p)
	db.trace.End(p)
	db.markFlushed(target, crashes)
	db.flushScheduled = false
	db.maybeScheduleFlush()
}

// markFlushed records that the log is on disk up to commit sequence
// seq: the one a writer fixed before its disk write yielded, when the
// crash count was crashes. The cursor only advances — a writer that
// started earlier may finish later — and never past a crash.
func (db *DB) markFlushed(seq int64, crashes int) {
	if seq > db.flushed && crashes == db.crashes {
		db.flushed = seq
		db.fold()
	}
}

// fold drops the log records every reader is past: the durable cursor,
// and each attached replica still shipping by offset (not stopped, no
// resync pending — a resync rebuilds from state, not records). Nothing
// folds between a Crash and its Recover, which puts back the durable
// image and re-applies the records landed since.
func (db *DB) fold() {
	if db.crashed {
		return
	}
	lo := int(db.flushed - db.seqBase)
	for _, r := range db.replicas {
		if !r.stopped && !r.resync {
			lo = min(lo, r.shipped)
		}
	}
	db.wal.fold(lo)
}

// commitLog makes a durable transaction's log tail durable the way the
// paper's prototype did: synchronously, riding the disk's group-commit
// journal, or — with a flush interval — not at all before returning,
// leaving the tail to the background dump.
func (db *DB) commitLog(p *sim.Proc) {
	if db.flushInterval > 0 {
		db.maybeScheduleFlush()
		return
	}
	target, crashes := db.CommitSeq(), db.crashes
	db.disk.Commit(p)
	db.markFlushed(target, crashes)
}

// forceLog writes and syncs the unflushed log tail before returning,
// whatever the flush interval. A handoff import acks on it.
func (db *DB) forceLog(p *sim.Proc) {
	target, crashes := db.CommitSeq(), db.crashes
	db.LogFlushes++
	db.disk.Write(p, 0, (target-db.flushed)*64)
	db.disk.Sync(p)
	db.markFlushed(target, crashes)
}

// scanLog charges reading the log back for recovery: one sequential
// scan of its logical length, positioned once, then streamed.
func (db *DB) scanLog(p *sim.Proc) {
	if db.disk != nil {
		db.disk.Read(p, 0, int64(db.wal.len())*64)
	}
}

// dumpImage charges writing a checkpoint image of rows live rows.
func (db *DB) dumpImage(p *sim.Proc, rows int64) {
	if db.disk != nil {
		db.disk.Write(p, 1, rows*64)
		db.disk.Sync(p)
	}
}

// Table is a typed table with a primary key and optional secondary
// indexes.
type Table[K comparable, V any] struct {
	db      *DB
	tblName string
	class   Storage
	data    map[K]V
	indexes []*index[V]
	// slab is the chunk the next logged entry is carved from. Entries
	// are never reused: a chunk is freed when no record refers to it.
	slab []entry[K, V]
	// image is the durable image a Crash set aside, until Recover.
	image map[K]V
}

// index maps a bucket value to the rows that extract to it, each
// bucket held as a run in the index's row order.
type index[V any] struct {
	name    string
	extract func(V) uint64
	order   func(a, b V) int
	buckets map[uint64]sortedRun[V]
	image   map[uint64]sortedRun[V] // the buckets of the durable image
}

// runChunk is the most rows one chunk of a run holds.
const runChunk = 128

// sortedRun is one index bucket's rows in index order: a sequence of
// sorted, non-empty chunks of at most runChunk rows, each chunk's rows
// ordered before the next chunk's. A chunk grows by append and splits
// in half when full, so an insert moves at most one chunk's rows
// whatever the bucket holds; a chunk that empties is dropped. The index
// map holds it by value, so a bucket costs no allocation of its own.
type sortedRun[V any] struct {
	chunks [][]V
	n      int
}

// NewTable registers a table with the database. Creating a DiscCopies
// table on a DB without a disk panics.
func NewTable[K comparable, V any](db *DB, name string, class Storage) *Table[K, V] {
	if _, dup := db.tables[name]; dup {
		panic("mdb: duplicate table " + name)
	}
	if class == DiscCopies && db.disk == nil {
		panic("mdb: disc_copies table requires a disk")
	}
	t := &Table[K, V]{
		db:      db,
		tblName: name,
		class:   class,
		data:    make(map[K]V),
	}
	db.tables[name] = t
	return t
}

// AddIndex registers a secondary index computed by extract, whose
// buckets keep their rows in the order order gives. order must be total
// within a bucket — compare a field unique among the rows that share an
// extracted value — and adding a row it ties with another panics. Must
// be called before any rows are inserted.
func (t *Table[K, V]) AddIndex(name string, extract func(V) uint64, order func(a, b V) int) {
	if len(t.data) > 0 {
		panic("mdb: AddIndex on non-empty table")
	}
	t.indexes = append(t.indexes, &index[V]{
		name:    name,
		extract: extract,
		order:   order,
		buckets: make(map[uint64]sortedRun[V]),
	})
}

// rec builds the WAL record of one write to t, carving its entry from
// the table's slab.
func (t *Table[K, V]) rec(op walOp, key K, val V) walRec {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]entry[K, V], 0, entrySlabChunk)
	}
	t.slab = append(t.slab, entry[K, V]{key: key, val: val})
	return walRec{table: t.tblName, op: op, kv: &t.slab[len(t.slab)-1]}
}

func (t *Table[K, V]) name() string     { return t.tblName }
func (t *Table[K, V]) storage() Storage { return t.class }
func (t *Table[K, V]) rows() int        { return len(t.data) }

func (t *Table[K, V]) clear() {
	t.data = make(map[K]V)
	t.image = nil
	for _, ix := range t.indexes {
		ix.buckets = make(map[uint64]sortedRun[V])
		ix.image = nil
	}
}

func (t *Table[K, V]) apply(rec walRec) { t.write(rec, false) }

func (t *Table[K, V]) land(rec walRec) { t.write(rec, t.class == DiscCopies) }

// write writes rec's row; with undo it keeps the row it replaced in the
// record's entry.
func (t *Table[K, V]) write(rec walRec, undo bool) {
	e := rec.kv.(*entry[K, V])
	old, had := t.data[e.key]
	if undo {
		e.prev, e.had = old, had
	}
	if had {
		for _, ix := range t.indexes {
			ix.remove(old)
		}
	}
	if rec.op == walDelete {
		if had {
			delete(t.data, e.key)
		}
		return
	}
	t.data[e.key] = e.val
	for _, ix := range t.indexes {
		ix.add(e.val)
	}
}

func (t *Table[K, V]) undo(rec walRec) {
	if e := rec.kv.(*entry[K, V]); e.had {
		t.put(e.key, e.prev)
	} else {
		t.del(e.key)
	}
}

func (t *Table[K, V]) crash() {
	if t.class == DiscCopies {
		t.image = t.data
		for _, ix := range t.indexes {
			ix.image = ix.buckets
		}
	}
	t.data = make(map[K]V)
	for _, ix := range t.indexes {
		ix.buckets = make(map[uint64]sortedRun[V])
	}
}

func (t *Table[K, V]) restore() {
	if t.image == nil {
		return
	}
	t.data, t.image = t.image, nil
	for _, ix := range t.indexes {
		ix.buckets, ix.image = ix.image, nil
	}
}

func (t *Table[K, V]) copyTo(dst table) {
	d := dst.(*Table[K, V])
	rows := t.data
	if t.image != nil {
		rows = t.image
	}
	keys := make([]K, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sortFormatted(keys)
	for _, k := range keys {
		d.put(k, rows[k])
	}
}

func (t *Table[K, V]) put(key K, val V) {
	if old, ok := t.data[key]; ok {
		for _, ix := range t.indexes {
			ix.remove(old)
		}
	}
	t.data[key] = val
	for _, ix := range t.indexes {
		ix.add(val)
	}
}

func (t *Table[K, V]) del(key K) {
	if old, ok := t.data[key]; ok {
		for _, ix := range t.indexes {
			ix.remove(old)
		}
		delete(t.data, key)
	}
}

// add inserts a row into its bucket's run. Every row of a key leaves
// the index before the key's next row enters it, so a row the order
// ties with belongs to another key: the order is not total, and a later
// remove could drop the wrong row.
func (ix *index[V]) add(val V) {
	b := ix.extract(val)
	r := ix.buckets[b]
	if !r.add(val, ix.order) {
		panic(fmt.Sprintf("mdb: index %s orders two rows of bucket %d as equal (%v); its order must be total", ix.name, b, val))
	}
	ix.buckets[b] = r
}

// remove deletes a row, which must be in the index, from its bucket's
// run, dropping the bucket when it empties.
func (ix *index[V]) remove(val V) {
	b := ix.extract(val)
	r := ix.buckets[b]
	if !r.remove(val, ix.order) {
		panic(fmt.Sprintf("mdb: index %s has no row %v in bucket %d", ix.name, val, b))
	}
	if r.n == 0 {
		delete(ix.buckets, b)
	} else {
		ix.buckets[b] = r
	}
}

// chunk returns the index of the chunk that holds v or would take it:
// the first whose last row is not ordered before v, else the last.
func (r *sortedRun[V]) chunk(v V, order func(a, b V) int) int {
	return sort.Search(len(r.chunks)-1, func(c int) bool {
		ch := r.chunks[c]
		return order(ch[len(ch)-1], v) >= 0
	})
}

// add inserts v in order, reporting false — and inserting nothing — if
// the run holds a row order ties with it.
func (r *sortedRun[V]) add(v V, order func(a, b V) int) bool {
	if len(r.chunks) == 0 {
		r.chunks = append(r.chunks, []V{v})
		r.n = 1
		return true
	}
	c := r.chunk(v, order)
	i, tie := slices.BinarySearchFunc(r.chunks[c], v, order)
	if tie {
		return false
	}
	if len(r.chunks[c]) == runChunk {
		const half = runChunk / 2
		lo := r.chunks[c]
		hi := make([]V, half, runChunk)
		copy(hi, lo[half:])
		clear(lo[half:])
		r.chunks[c] = lo[:half]
		r.chunks = slices.Insert(r.chunks, c+1, hi)
		if i > half {
			c, i = c+1, i-half
		}
	}
	r.chunks[c] = slices.Insert(r.chunks[c], i, v)
	r.n++
	return true
}

// remove deletes the row order ties with v, reporting whether there
// was one.
func (r *sortedRun[V]) remove(v V, order func(a, b V) int) bool {
	if len(r.chunks) == 0 {
		return false
	}
	c := r.chunk(v, order)
	i, found := slices.BinarySearchFunc(r.chunks[c], v, order)
	if !found {
		return false
	}
	if r.chunks[c] = slices.Delete(r.chunks[c], i, i+1); len(r.chunks[c]) == 0 {
		r.chunks = slices.Delete(r.chunks, c, c+1)
	}
	r.n--
	return true
}

// Tx is a transaction handle. Operations performed through it are
// counted for the charge that follows the closure, and writes are
// logged for durable tables at commit.
type Tx struct {
	db      *DB
	p       *sim.Proc
	log     []walRec
	durable bool
	ops     int
	view    bool // read-only snapshot handle (DB.View)
}

// atomically runs fn on the shared handle at one virtual instant and
// lands its write set — tables and WAL — in that same instant. It
// returns the table operations fn performed and whether any touched a
// disc-copies table. A nested entry or a closure that lets the clock
// advance panics: the closure would no longer be atomic.
func (db *DB) atomically(p *sim.Proc, view bool, fn func(tx *Tx)) (ops int, durable bool) {
	tx := &db.tx
	if tx.p != nil {
		panic("mdb: transaction entered while another is open")
	}
	*tx = Tx{db: db, p: p, view: view, log: tx.log[:0]}
	at := p.Now()
	fn(tx)
	tx.p = nil
	if p.Now() != at {
		panic("mdb: transaction closure yielded")
	}
	db.land(tx.log)
	clear(tx.log) // the reused buffer must not pin entries the log folds
	return tx.ops, tx.durable
}

// land applies recs to the tables and appends them to the log in one
// step: no view or transaction can observe part of them.
func (db *DB) land(recs []walRec) {
	for _, rec := range recs {
		db.tables[rec.table].land(rec)
	}
	db.wal.pushAll(recs)
}

// pay charges ops table operations to p as one block.
func (db *DB) pay(p *sim.Proc, ops int) {
	if db.opTime > 0 && ops > 0 {
		p.Sleep(db.opTime * time.Duration(ops))
	}
}

// View runs fn as a read-only snapshot transaction: every read through
// tx observes the committed table state of one virtual instant — the
// operation's linearization point — because fn runs without yielding
// and commits apply their write sets without yielding. The CPU cost of
// the ops fn performed is charged to p as one block after fn returns.
// Put and Delete through tx panic, and so does a closure that lets
// virtual time advance.
func (db *DB) View(p *sim.Proc, fn func(tx *Tx)) {
	db.Views++
	ops, _ := db.atomically(p, true, fn)
	db.pay(p, ops)
}

// Transaction runs fn as a serializable read-write transaction under
// the same rule as View: fn runs without yielding at one virtual
// instant, and only then are its ops charged to p as one block and
// mutations of disc-copies tables committed to the log (group commit).
// Concurrent transactions never wait for each other. A closure that
// lets virtual time advance panics. Mirrors mnesia:transaction.
func (db *DB) Transaction(p *sim.Proc, fn func(tx *Tx)) {
	db.Transactions++
	ops, durable := db.atomically(p, false, fn)
	db.pay(p, ops)
	if durable {
		db.Commits++
		db.trace.Begin(p, db.traceGroup, "wal.commit", -1)
		db.commitLog(p)
		db.trace.End(p)
		db.notifyCommit()
	}
}

// charge counts one table operation for the single charge that follows
// the closure.
func (tx *Tx) charge() { tx.ops++ }

// write appends one record to the transaction's write set.
func (tx *Tx) write(rec walRec, class Storage) {
	if tx.view {
		panic("mdb: write through a View handle")
	}
	tx.charge()
	tx.log = append(tx.log, rec)
	if class == DiscCopies {
		tx.durable = true
	}
}

// Get returns the row for key within a transaction.
func Get[K comparable, V any](tx *Tx, t *Table[K, V], key K) (V, bool) {
	tx.charge()
	// Reads observe the transaction's own uncommitted writes.
	for i := len(tx.log) - 1; i >= 0; i-- {
		rec := tx.log[i]
		if rec.table == t.tblName {
			if e := rec.kv.(*entry[K, V]); e.key == key {
				return e.val, rec.op == walPut
			}
		}
	}
	v, ok := t.data[key]
	return v, ok
}

// Put writes a row within a transaction.
func Put[K comparable, V any](tx *Tx, t *Table[K, V], key K, val V) {
	tx.write(t.rec(walPut, key, val), t.class)
}

// Delete removes a row within a transaction.
func Delete[K comparable, V any](tx *Tx, t *Table[K, V], key K) {
	var zero V
	tx.write(t.rec(walDelete, key, zero), t.class)
}

// Rows is a read-only view of one index bucket's committed rows, in the
// index's order. It reads the index in place, so it is valid only inside
// the transaction closure that obtained it: a commit rewrites the
// index.
type Rows[V any] struct{ r sortedRun[V] }

// Len is the number of rows in the bucket.
func (rs Rows[V]) Len() int { return rs.r.n }

// All yields the bucket's rows in index order.
func (rs Rows[V]) All() iter.Seq[V] {
	return func(yield func(V) bool) {
		for _, ch := range rs.r.chunks {
			for _, v := range ch {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// IndexRead returns the committed rows whose indexed value equals
// bucket, in the index's order: Mnesia's index_read, one table operation
// however many rows the bucket holds (a directory listing reads its
// entries' rows this way). The rows are read in place, not collected or
// sorted.
//
// Unlike Get, the index serves committed rows only: a transaction's own
// uncommitted Puts and Deletes are NOT reflected (they reach the index
// at commit). Query the index before mutating related rows in the same
// transaction.
func IndexRead[K comparable, V any](tx *Tx, t *Table[K, V], indexName string, bucket uint64) Rows[V] {
	tx.charge()
	for _, ix := range t.indexes {
		if ix.name == indexName {
			return Rows[V]{ix.buckets[bucket]}
		}
	}
	panic(fmt.Sprintf("mdb: table %s has no index %s", t.tblName, indexName))
}

// sortFormatted sorts keys by their fmt.Sprint rendering — the store's
// deterministic order — formatting each key once up front instead of
// twice per comparison. Distinct keys render distinctly for every key
// type the store uses, so the resulting order is unique.
func sortFormatted[K comparable](keys []K) {
	if len(keys) < 2 {
		return
	}
	s := formattedSorter[K]{keys: keys, strs: make([]string, len(keys))}
	for i, k := range keys {
		s.strs[i] = fmt.Sprint(k)
	}
	sort.Sort(&s)
}

type formattedSorter[K comparable] struct {
	keys []K
	strs []string
}

func (s *formattedSorter[K]) Len() int           { return len(s.keys) }
func (s *formattedSorter[K]) Less(i, j int) bool { return s.strs[i] < s.strs[j] }
func (s *formattedSorter[K]) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.strs[i], s.strs[j] = s.strs[j], s.strs[i]
}

// Select returns all values matching pred, in deterministic order.
func Select[K comparable, V any](tx *Tx, t *Table[K, V], pred func(K, V) bool) []V {
	tx.charge()
	keys := make([]K, 0, len(t.data))
	for k := range t.data {
		keys = append(keys, k)
	}
	sortFormatted(keys)
	var out []V
	for _, k := range keys {
		if pred(k, t.data[k]) {
			out = append(out, t.data[k])
		}
	}
	return out
}

// DirtyGet reads without transaction isolation (mnesia:dirty_read).
func DirtyGet[K comparable, V any](p *sim.Proc, t *Table[K, V], key K) (V, bool) {
	t.db.DirtyOps++
	if t.db.opTime > 0 {
		p.Sleep(t.db.opTime)
	}
	v, ok := t.data[key]
	return v, ok
}

// Len returns the number of rows in the table.
func (t *Table[K, V]) Len() int { return len(t.data) }

// Crash simulates a service-node crash: every table loses its in-memory
// contents. Durable state survives: the records past the durable cursor
// are undone, newest first, the disc tables are set aside as the
// durable image and the log is truncated to the cursor. Attached
// replicas are forced to resynchronize — the truncated WAL invalidates
// their shipped offsets, and a standby must converge to the state the
// primary can actually recover, not to the pre-crash tail it may have
// seen.
func (db *DB) Crash() {
	if db.crashed {
		db.restore() // a crash before recovery: the image is what the log holds
	}
	db.crashes++
	flushed := int(db.flushed - db.seqBase)
	for i := db.wal.len() - 1; i >= flushed; i-- {
		rec := db.wal.at(i)
		if t := db.tables[rec.table]; t.storage() == DiscCopies {
			t.undo(rec)
		}
	}
	for _, t := range db.tables {
		t.crash()
	}
	db.wal.truncate(flushed)
	db.crashed, db.crashAt = true, db.wal.len()
	for _, r := range db.replicas {
		r.resync = true
		r.pump()
	}
}

// Recover reads the log back, charging the scan to the calling process,
// and brings the disc-copies tables back to what replaying it gives:
// the durable image, then every record that landed since the crash.
// Ram-copies tables stay as the crash left them (as with Mnesia after a
// restart).
func (db *DB) Recover(p *sim.Proc) {
	db.scanLog(p)
	if db.crashed {
		db.restore()
	}
	db.fold()
}

// restore puts the durable image back into the disc-copies tables and
// re-applies the records that landed since the crash, the ones past
// the durable cursor keeping their undo against the restored rows.
func (db *DB) restore() {
	for _, t := range db.tables {
		t.restore()
	}
	seq := db.seqBase + int64(db.crashAt)
	db.wal.each(db.crashAt, db.wal.len(), func(rec walRec) {
		if t := db.tables[rec.table]; t.storage() == DiscCopies {
			if seq >= db.flushed {
				t.land(rec)
			} else {
				t.apply(rec)
			}
		}
		seq++
	})
	db.crashed = false
}

// Checkpoint writes an image of the disc-copies tables and rewrites the
// WAL as that image — one record per row — charging the write to the
// calling process. The image holds the rows of the instant the
// checkpoint starts; records that land while it is on the disk stay in
// the log after it, exactly as durable as they were.
func (db *DB) Checkpoint(p *sim.Proc) {
	if db.crashed {
		db.restore() // the image to dump is the recovered one
	}
	rows := 0
	for _, t := range db.tables {
		if t.storage() == DiscCopies {
			rows += t.rows()
		}
	}
	at, mark, crashes := db.CommitSeq(), db.wal.len(), db.crashes
	staged, handedOff := db.staged, db.handedOff
	db.dumpImage(p, int64(rows))
	if crashes != db.crashes {
		return // the image and the log it would replace died with the crash
	}
	// Rebase the commit sequence so it keeps counting from where it
	// was: a replica's shipped sequence stays comparable before and
	// after the rewrite, and the image ends at sequence at — which is
	// what the dump made durable.
	seq := db.CommitSeq()
	db.wal.rebase(mark, rows)
	db.seqBase = seq - int64(db.wal.len())
	db.markFlushed(at, crashes)
	// The image holds exactly the rows the tables did: staged imports
	// are folded in as ordinary records and handed-off rows are gone, so
	// the migration bookkeeping keeps only what landed during the dump.
	db.staged = max(db.staged-staged, 0)
	db.handedOff = max(db.handedOff-handedOff, 0)
	db.notifyCheckpoint()
	db.fold()
}

// WALLen reports the log's logical length: every record appended since
// the last Checkpoint rewrite, whether or not the host still holds it
// (for tests and cofsctl).
func (db *DB) WALLen() int { return db.wal.len() }

// KV pairs a key with its value for SelectKeys results.
type KV[K comparable, V any] struct {
	Key K
	Val V
}

// SelectKeys returns matching key/value pairs in deterministic order.
func SelectKeys[K comparable, V any](tx *Tx, t *Table[K, V], pred func(K, V) bool) []KV[K, V] {
	tx.charge()
	keys := make([]K, 0, len(t.data))
	for k := range t.data {
		keys = append(keys, k)
	}
	sortFormatted(keys)
	var out []KV[K, V]
	for _, k := range keys {
		if pred(k, t.data[k]) {
			out = append(out, KV[K, V]{Key: k, Val: t.data[k]})
		}
	}
	return out
}

// Bootstrap inserts a row directly, bypassing transactions and timing;
// it is for initial state only (e.g. the root directory) and also seeds
// the WAL so recovery reproduces it.
func (t *Table[K, V]) Bootstrap(key K, val V) {
	t.put(key, val)
	t.db.wal.push(t.rec(walPut, key, val))
	t.db.flushed = t.db.CommitSeq()
	t.db.fold()
}

// Peek reads a row without timing charges (inspection/invariant checks).
func (t *Table[K, V]) Peek(key K) (V, bool) {
	v, ok := t.data[key]
	return v, ok
}

// Each visits every row in deterministic (formatted-key) order, without
// timing charges. For tests and tooling.
func (t *Table[K, V]) Each(fn func(K, V)) {
	keys := make([]K, 0, len(t.data))
	for k := range t.data {
		keys = append(keys, k)
	}
	sortFormatted(keys)
	for _, k := range keys {
		fn(k, t.data[k])
	}
}
