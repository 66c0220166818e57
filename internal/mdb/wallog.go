package mdb

// walChunkSize is the record count per WAL chunk. The log used to be
// one flat []walRec; at million-file scale it grows to millions of
// records, and every append-driven doubling re-copied and re-zeroed
// the whole history (the top allocation site of the storm profile).
// Fixed-size chunks cap each allocation at walChunkSize records and
// never copy old ones. The representation is invisible to the
// simulation: virtual costs depend only on record counts.
const walChunkSize = 4096

// walLog is an append-mostly log of WAL records stored in fixed-size
// chunks. Every chunk except the last holds exactly walChunkSize
// records, so record i lives at chunks[i/walChunkSize][i%walChunkSize].
type walLog struct {
	chunks [][]walRec
	n      int
}

func (l *walLog) len() int { return l.n }

func (l *walLog) push(rec walRec) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == walChunkSize {
		l.chunks = append(l.chunks, make([]walRec, 0, walChunkSize))
		last++
	}
	l.chunks[last] = append(l.chunks[last], rec)
	l.n++
}

func (l *walLog) pushAll(recs []walRec) {
	for _, rec := range recs {
		l.push(rec)
	}
}

// each calls fn for records [from, to) in log order.
func (l *walLog) each(from, to int, fn func(walRec)) {
	for i := from; i < to; i++ {
		fn(l.chunks[i/walChunkSize][i%walChunkSize])
	}
}

// truncate drops records [n, len). Dropped slots are zeroed so the
// truncated tail does not pin the slab chunks its entries were carved
// from.
func (l *walLog) truncate(n int) {
	if n >= l.n {
		return
	}
	keep := (n + walChunkSize - 1) / walChunkSize
	for i := keep; i < len(l.chunks); i++ {
		l.chunks[i] = nil
	}
	l.chunks = l.chunks[:keep]
	if off := n % walChunkSize; off != 0 {
		c := l.chunks[keep-1]
		for i := off; i < len(c); i++ {
			c[i] = walRec{}
		}
		l.chunks[keep-1] = c[:off]
	}
	l.n = n
}

// reset replaces the whole log with recs (checkpoint snapshot rebuild,
// standby resync).
func (l *walLog) reset(recs []walRec) {
	for i := range l.chunks {
		l.chunks[i] = nil
	}
	l.chunks = l.chunks[:0]
	l.n = 0
	l.pushAll(recs)
}
