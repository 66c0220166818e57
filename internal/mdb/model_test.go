package mdb

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cofs/internal/disk"
	"cofs/internal/params"
	"cofs/internal/sim"
)

// mrow is the model check's row: Bucket is its index bucket.
type mrow struct {
	Key    uint16
	Bucket uint8
	Val    uint16
}

func byMKey(a, b mrow) int { return cmp.Compare(a.Key, b.Key) }

const mBuckets = 4

// mrec is one record of the model's own log.
type mrec struct {
	disc bool
	del  bool
	row  mrow
}

// walModel is the reference the store is checked against: every record
// in commit-sequence order, kept whole, and the rows it implies.
type walModel struct {
	full      []mrec // full[i] is the record of commit sequence i
	disc, ram map[uint16]mrow
	base      int64 // the commit sequence of log offset 0
	staged    int
	handedOff int
	crashes   int
}

func (m *walModel) apply(r mrec) {
	rows := m.ram
	if r.disc {
		rows = m.disc
	}
	if r.del {
		delete(rows, r.row.Key)
	} else {
		rows[r.row.Key] = r.row
	}
}

// crash keeps the durable prefix and replays it into plain maps; the
// ram table restarts empty.
func (m *walModel) crash(flushed int64) {
	m.crashes++
	m.full = m.full[:flushed]
	m.disc, m.ram = map[uint16]mrow{}, map[uint16]mrow{}
	for _, r := range m.full {
		if r.disc {
			m.apply(r)
		}
	}
}

// TestWALMatchesModel drives random histories over a disc table and a
// ram table, each with an index, on the synchronous and the
// asynchronous WAL: commits, sync forces, flush windows, crashes at
// random instants (inside commits, forces, checkpoints and recoveries,
// with commits landing between a crash and its recovery), checkpoints,
// handoff imports (some imported twice) and a replica with a random
// shipping delay that resyncs after checkpoints and crashes. A model
// keeps the whole record list. Whenever the primary is up its tables
// and index views must equal the model's rows — after a recovery, the
// replay of the durable prefix and the records landed since — and
// CommitSeq, WALLen and OwnedWALLen must match the logical counts.
// After each drain the standby must equal the primary, and the primary
// must hold no records.
func TestWALMatchesModel(t *testing.T) {
	for _, mode := range []struct {
		name     string
		interval time.Duration
	}{{"sync", 0}, {"async", 3 * time.Millisecond}} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode.name, seed), func(t *testing.T) {
				runWALModel(t, seed, mode.interval)
			})
		}
	}
}

func runWALModel(t *testing.T, seed int64, interval time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	env := sim.NewEnv(seed)
	const opTime = 10 * time.Microsecond
	db := NewAsync(env, disk.New(env, "primary", params.Default().Disk), opTime, interval)
	sb := New(env, disk.New(env, "standby", params.Default().Disk), opTime)
	schema := func(db *DB) (disc, ram *Table[uint16, mrow]) {
		disc = NewTable[uint16, mrow](db, "disc", DiscCopies)
		ram = NewTable[uint16, mrow](db, "ram", RamCopies)
		for _, tbl := range []*Table[uint16, mrow]{disc, ram} {
			tbl.AddIndex("b", func(v mrow) uint64 { return uint64(v.Bucket) }, byMKey)
		}
		return disc, ram
	}
	pdisc, pram := schema(db)
	sdisc, sram := schema(sb)
	delay := time.Duration(1+rng.Intn(20)) * time.Millisecond
	rep := Replicate(env, db, sb, delay)
	m := &walModel{disc: map[uint16]mrow{}, ram: map[uint16]mrow{}}
	failed := false
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		failed = true
	}

	counts := func(where string) {
		t.Helper()
		if got, want := db.CommitSeq(), int64(len(m.full)); got != want {
			fail("%s: CommitSeq %d, want %d", where, got, want)
		}
		if got, want := int64(db.WALLen()), int64(len(m.full))-m.base; got != want {
			fail("%s: WALLen %d, want %d", where, got, want)
		}
		if got, want := db.OwnedWALLen(), max(db.WALLen()-m.staged-m.handedOff, 0); got != want {
			fail("%s: OwnedWALLen %d, want %d", where, got, want)
		}
	}
	rows := func(where string, tbl *Table[uint16, mrow], want map[uint16]mrow) {
		t.Helper()
		if tbl.Len() != len(want) {
			fail("%s: table %s holds %d rows, want %d", where, tbl.tblName, tbl.Len(), len(want))
		}
		for k, v := range want {
			if got, ok := tbl.Peek(k); !ok || got != v {
				fail("%s: table %s row %d = (%v, %v), want %v", where, tbl.tblName, k, got, ok, v)
			}
		}
		tx := &Tx{}
		for b := uint64(0); b < mBuckets; b++ {
			var wantRows []mrow
			for _, k := range slices.Sorted(maps.Keys(want)) {
				if uint64(want[k].Bucket) == b {
					wantRows = append(wantRows, want[k])
				}
			}
			if got := readIndex(tx, tbl, "b", b); !slices.Equal(got, wantRows) {
				fail("%s: table %s bucket %d lists %v, want %v", where, tbl.tblName, b, got, wantRows)
			}
		}
	}
	// primary checks the primary against the model whenever it is up.
	primary := func(where string) {
		t.Helper()
		counts(where)
		if !db.crashed {
			rows(where, pdisc, m.disc)
			rows(where, pram, m.ram)
		}
	}

	writes := func() []mrec {
		recs := make([]mrec, 1+rng.Intn(6))
		for i := range recs {
			k := uint16(rng.Intn(64))
			recs[i] = mrec{
				disc: rng.Intn(3) > 0,
				del:  rng.Intn(4) == 0,
				row:  mrow{Key: k, Bucket: uint8(rng.Intn(mBuckets)), Val: uint16(rng.Intn(1000))},
			}
		}
		return recs
	}
	commit := func(p *sim.Proc) {
		recs := writes()
		for _, r := range recs {
			m.full = append(m.full, r)
			m.apply(r)
		}
		db.Transaction(p, func(tx *Tx) {
			for _, r := range recs {
				tbl := pram
				if r.disc {
					tbl = pdisc
				}
				if r.del {
					Delete(tx, tbl, r.row.Key)
				} else {
					Put(tx, tbl, r.row.Key, r.row)
				}
			}
		})
	}
	crashes := 0
	crash := func(p *sim.Proc) {
		m.crash(db.flushed)
		db.Crash()
		crashes++
		counts("after a crash")
		if rng.Intn(2) == 0 {
			commit(p) // lands between the crash and the recovery
		}
		db.Recover(p)
		primary("after a recovery")
	}
	var last *Handoff
	var lastRecs []mrec
	importHandoff := func(p *sim.Proc) {
		if last == nil || rng.Intn(3) > 0 {
			last, lastRecs = &Handoff{}, nil
			for range 1 + rng.Intn(4) {
				k := uint16(64 + rng.Intn(16))
				r := mrec{disc: true, row: mrow{Key: k, Bucket: uint8(rng.Intn(mBuckets)), Val: uint16(rng.Intn(1000))}}
				HandoffPut(last, pdisc, k, r.row)
				lastRecs = append(lastRecs, r)
			}
		}
		for _, r := range lastRecs {
			m.full = append(m.full, r)
			m.apply(r)
		}
		m.staged += last.Len()
		db.ImportHandoff(p, last)
	}
	checkpoint := func(p *sim.Proc) {
		if db.crashed {
			return
		}
		rows, seq, crashes := len(m.disc), int64(len(m.full)), m.crashes
		staged, handedOff := m.staged, m.handedOff
		db.Checkpoint(p)
		if m.crashes == crashes {
			m.base = seq - int64(rows)
			m.staged = max(m.staged-staged, 0)
			m.handedOff = max(m.handedOff-handedOff, 0)
		}
	}
	drain := func(p *sim.Proc, where string) {
		// A transaction that writes only the ram table neither schedules
		// a flush nor a ship: force and ship its records explicitly.
		p.Sleep(time.Second)
		db.forceLog(p)
		rep.Flush(p)
		primary(where)
		if db.crashed || rep.Lag() != 0 {
			fail("%s: crashed %v, lag %d after a drain", where, db.crashed, rep.Lag())
			return
		}
		rows(where+" (standby)", sdisc, m.disc)
		rows(where+" (standby)", sram, m.ram)
		if sb.WALLen() != db.WALLen() {
			fail("%s: standby log %d records, primary %d", where, sb.WALLen(), db.WALLen())
		}
		if n := db.wal.retained(); n != 0 {
			fail("%s: the primary retains %d flushed, shipped records", where, n)
		}
	}

	env.Spawn("driver", func(p *sim.Proc) {
		for step := 0; step < 400 && !failed; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				commit(p)
			case op < 11:
				p.Sleep(time.Duration(rng.Intn(4000)) * time.Microsecond)
			case op < 12:
				db.forceLog(p)
			case op < 14:
				env.SpawnAfter("crash", time.Duration(rng.Intn(1500))*time.Microsecond, crash)
			case op < 15:
				checkpoint(p)
			case op < 16:
				importHandoff(p)
			case op < 17:
				n := rng.Intn(4)
				db.SealHandoff(n)
				m.staged = max(m.staged-n, 0)
			case op < 18:
				n := rng.Intn(3)
				db.RetireHandoff(n)
				m.handedOff += n
			default:
				drain(p, fmt.Sprintf("step %d", step))
			}
			primary(fmt.Sprintf("step %d", step))
		}
		drain(p, "end")
		rep.Stop()
		sb.Crash()
		sb.Recover(p)
		rows("standby recovered from its own log", sdisc, m.disc)
	})
	env.MustRun()
	if crashes == 0 {
		t.Fatal("no crash ran")
	}
}
