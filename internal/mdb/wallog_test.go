package mdb

import (
	"math/rand"
	"testing"
)

// TestWalLogMatchesSlice drives the log through random appends, folds,
// truncations, checkpoint rebases and resets across chunk boundaries
// against a plain slice of the records it should retain. After every
// step the logical length and the window must match, and every slot
// outside the window — in the chunks held and the free list — must be
// zero, so that nothing folded or truncated pins a slab chunk.
func TestWalLogMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var l walLog
	var want []int // the retained records, from offset lo
	lo, n, next := 0, 0, 0
	for step := 0; step < 3000; step++ {
		switch rng.Intn(6) {
		case 0, 1:
			for range rng.Intn(3 * walChunkSize) {
				l.push(walRec{kv: next})
				want = append(want, next)
				next++
				n++
			}
		case 2:
			to := lo + rng.Intn(n-lo+1)
			l.fold(to)
			want = want[to-lo:]
			lo = to
		case 3:
			m := lo + rng.Intn(n-lo+1)
			l.truncate(m)
			want = want[:m-lo]
			n = m
		case 4:
			// A checkpoint's mark may lie below lo: the window can fold
			// past it during the dump.
			mark := rng.Intn(n + 1)
			to := rng.Intn(2*n + 1)
			l.rebase(mark, to)
			if mark > lo {
				want = want[mark-lo:]
				lo = mark
			}
			lo, n = lo+to-mark, n+to-mark
		case 5:
			if rng.Intn(4) == 0 {
				m := rng.Intn(5 * walChunkSize)
				l.reset(m)
				want, lo, n = nil, m, m
			}
		}
		if l.len() != n || l.retained() != len(want) {
			t.Fatalf("step %d: log of %d holding %d, want %d holding %d", step, l.len(), l.retained(), n, len(want))
		}
		i := 0
		l.each(lo, n, func(rec walRec) {
			if rec.kv != want[i] {
				t.Fatalf("step %d: record %d is %v, want %d", step, lo+i, rec.kv, want[i])
			}
			i++
		})
		set := 0
		for _, ch := range append(l.chunks, l.free...) {
			for _, rec := range ch[:cap(ch)] {
				if rec.kv != nil {
					set++
				}
			}
		}
		if set != len(want) {
			t.Fatalf("step %d: %d slots set for %d retained records", step, set, len(want))
		}
	}
}
