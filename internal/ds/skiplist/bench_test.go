package skiplist

import (
	"runtime"
	"sync"
	"testing"

	"ebrrq/internal/rqprov"
)

// The layer-level numbers behind the repo benchmark's ds.contains_ns and
// ds.update_ns on upd-skiplist-lf: a bare list (Unsafe provider, one thread)
// prefilled with 2^18 uniform keys out of 2^19. B/node is the live heap the
// prefill added per node, so it prices the node layout and nothing else.
const (
	benchKeyRange = 1 << 19
	benchPrefill  = benchKeyRange / 2
)

type benchList struct {
	l            *List
	t            *rqprov.Thread
	rng          uint64
	bytesPerNode float64
}

func (f *benchList) key() int64 {
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	return int64(f.rng>>11) % benchKeyRange
}

// prefilled builds the fixture once per test binary: testing re-enters every
// benchmark with growing b.N, and the prefill is the expensive part.
var prefilled = sync.OnceValue(func() *benchList {
	p := rqprov.New(rqprov.Config{MaxThreads: 1, Mode: rqprov.ModeUnsafe, LimboSorted: true})
	f := &benchList{l: New(p), t: p.Register(), rng: 0x2545f4914f6cdd1d}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for n := 0; n < benchPrefill; {
		if k := f.key(); f.l.Insert(f.t, k, k) {
			n++
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	f.bytesPerNode = float64(after.HeapAlloc-before.HeapAlloc) / benchPrefill
	return f
})

func BenchmarkFind(b *testing.B) {
	f := prefilled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.l.Contains(f.t, f.key())
	}
	b.ReportMetric(f.bytesPerNode, "B/node")
}

// BenchmarkInsertDelete alternates inserts and deletes of uniform keys, about
// half of each succeeding, so the list stays near its prefilled size.
func BenchmarkInsertDelete(b *testing.B) {
	f := prefilled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k := f.key(); i%2 == 0 {
			f.l.Insert(f.t, k, k)
		} else {
			f.l.Delete(f.t, k)
		}
	}
	b.ReportMetric(f.bytesPerNode, "B/node")
}
