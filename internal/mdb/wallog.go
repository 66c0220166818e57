package mdb

// walChunkSize is the record count per WAL chunk. The retained window
// is held in fixed-size chunks, so a window that grows never re-copies
// the records it holds, and emptied chunks are reused for the next
// records instead of being reallocated.
const walChunkSize = 1024

// walLog is the WAL as the host holds it: a logical record count and a
// retained window. n counts every record appended since the last
// Checkpoint rewrite; CommitSeq, WALLen, the recovery scan and the
// flush and force byte counts read it. Only records from offset lo on
// are held: the tail some reader still needs (DB.fold says which).
// Records before lo are folded into the tables — no slot refers to
// them any longer, so the slab chunks their entries were carved from
// can die. Record i (lo <= i < n) lives at
// chunks[(i-base)/walChunkSize][(i-base)%walChunkSize]; slots before lo
// are zeroed.
type walLog struct {
	chunks [][]walRec
	base   int
	lo     int
	n      int
	// free holds emptied chunks for the window to grow into again.
	free [][]walRec
}

func (l *walLog) len() int { return l.n }

// retained is the number of records the window holds.
func (l *walLog) retained() int { return l.n - l.lo }

func (l *walLog) push(rec walRec) {
	c := (l.n - l.base) / walChunkSize
	if c == len(l.chunks) {
		var ch []walRec
		if n := len(l.free); n > 0 {
			ch, l.free = l.free[n-1], l.free[:n-1]
		} else {
			ch = make([]walRec, 0, walChunkSize)
		}
		l.chunks = append(l.chunks, ch)
	}
	l.chunks[c] = append(l.chunks[c], rec)
	l.n++
}

func (l *walLog) pushAll(recs []walRec) {
	for _, rec := range recs {
		l.push(rec)
	}
}

// at returns record i, which must not be folded.
func (l *walLog) at(i int) walRec {
	i -= l.base
	return l.chunks[i/walChunkSize][i%walChunkSize]
}

// each calls fn for records [from, to) in log order. from must not be
// folded.
func (l *walLog) each(from, to int, fn func(walRec)) {
	if from < l.lo {
		panic("mdb: reading folded WAL records")
	}
	for i := from; i < to; i++ {
		fn(l.at(i))
	}
}

// zero clears the slots of records [from, to).
func (l *walLog) zero(from, to int) {
	for i := from - l.base; i < to-l.base; {
		c, off := i/walChunkSize, i%walChunkSize
		end := min(walChunkSize, off+to-l.base-i)
		clear(l.chunks[c][off:end])
		i += end - off
	}
}

// recycle moves chunks [from, to), which must be zeroed, to the free
// list.
func (l *walLog) recycle(from, to int) {
	for _, ch := range l.chunks[from:to] {
		l.free = append(l.free, ch[:0])
	}
	m := from + copy(l.chunks[from:], l.chunks[to:])
	clear(l.chunks[m:])
	l.chunks = l.chunks[:m]
}

// fold drops records [lo, to): no reader needs them.
func (l *walLog) fold(to int) {
	to = min(to, l.n)
	if to <= l.lo {
		return
	}
	l.zero(l.lo, to)
	l.lo = to
	if k := (to - l.base) / walChunkSize; k > 0 {
		l.recycle(0, k)
		l.base += k * walChunkSize
	}
}

// truncate drops records [m, len). They must not be folded.
func (l *walLog) truncate(m int) {
	if m >= l.n {
		return
	}
	if m < l.lo {
		panic("mdb: truncating folded WAL records")
	}
	l.zero(m, l.n)
	k := (m - l.base + walChunkSize - 1) / walChunkSize
	l.recycle(k, len(l.chunks))
	if k > 0 {
		l.chunks[k-1] = l.chunks[k-1][:m-l.base-(k-1)*walChunkSize]
	}
	l.n = m
}

// rebase folds records [lo, mark) and renumbers the rest so offset mark
// becomes to (Checkpoint's rewrite: the image takes the place of the
// log before mark).
func (l *walLog) rebase(mark, to int) {
	l.fold(mark)
	d := to - mark
	l.base += d
	l.lo += d
	l.n += d
}

// reset makes the log n records long, none of them retained.
func (l *walLog) reset(n int) {
	l.zero(l.lo, l.n)
	l.recycle(0, len(l.chunks))
	l.base, l.lo, l.n = n, n, n
}
