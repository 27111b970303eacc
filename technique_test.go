package ebrrq_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebrrq"
	"ebrrq/internal/obs"
	"ebrrq/internal/validate"
)

// TestBundleSupportMatrix pins the Bundle technique's feasibility matrix:
// the two bundled list shapes under the timestamp-capable modes, nothing
// else.
func TestBundleSupportMatrix(t *testing.T) {
	allDS := []ebrrq.DataStructure{
		ebrrq.LFList, ebrrq.LazyList, ebrrq.SkipList, ebrrq.LFBST,
		ebrrq.Citrus, ebrrq.ABTree, ebrrq.BSlack,
	}
	allModes := []ebrrq.Mode{
		ebrrq.Unsafe, ebrrq.Lock, ebrrq.HTM, ebrrq.LockFree, ebrrq.Snap, ebrrq.RLU,
	}
	for _, d := range allDS {
		for _, m := range allModes {
			want := (d == ebrrq.LazyList || d == ebrrq.SkipList) &&
				(m == ebrrq.Lock || m == ebrrq.HTM || m == ebrrq.LockFree)
			if got := ebrrq.Bundle.Supports(d, m); got != want {
				t.Errorf("Bundle.Supports(%v, %v) = %v, want %v", d, m, got, want)
			}
			if want {
				s, err := ebrrq.NewWithOptions(d, m, 2, ebrrq.Options{Technique: ebrrq.Bundle})
				if err != nil {
					t.Fatalf("NewWithOptions(%v, %v, Bundle): %v", d, m, err)
				}
				if s.Technique() != ebrrq.Bundle {
					t.Fatalf("Technique() = %v, want Bundle", s.Technique())
				}
				if s.Domain() == nil || s.Clock() == nil {
					t.Fatal("Bundle set must expose its epoch domain and clock")
				}
			} else if _, err := ebrrq.NewWithOptions(d, m, 2, ebrrq.Options{Technique: ebrrq.Bundle}); err == nil {
				t.Errorf("NewWithOptions(%v, %v, Bundle) succeeded outside the matrix", d, m)
			}
		}
	}
}

// TestBundleQuickstart drives the basic op mix through the public API for
// every supported (structure, mode) Bundle pair, with metrics attached.
func TestBundleQuickstart(t *testing.T) {
	for _, d := range []ebrrq.DataStructure{ebrrq.LazyList, ebrrq.SkipList} {
		for _, m := range []ebrrq.Mode{ebrrq.Lock, ebrrq.HTM, ebrrq.LockFree} {
			t.Run(d.String()+"/"+m.String(), func(t *testing.T) {
				reg := obs.NewRegistry(2)
				s, err := ebrrq.NewWithOptions(d, m, 2, ebrrq.Options{
					Technique: ebrrq.Bundle,
					Metrics:   reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				th := s.NewThread()
				defer th.Close()
				for k := int64(0); k < 100; k++ {
					if !th.Insert(k, k*2) {
						t.Fatalf("Insert(%d) failed", k)
					}
				}
				for k := int64(0); k < 100; k += 2 {
					if !th.Delete(k) {
						t.Fatalf("Delete(%d) failed", k)
					}
				}
				if v, ok := th.Contains(51); !ok || v != 102 {
					t.Fatalf("Contains(51) = (%d, %v), want (102, true)", v, ok)
				}
				res := th.RangeQuery(0, 99)
				if len(res) != 50 {
					t.Fatalf("RangeQuery returned %d keys, want 50", len(res))
				}
				for i, kv := range res {
					if kv.Key != int64(2*i+1) || kv.Value != kv.Key*2 {
						t.Fatalf("result[%d] = %+v, want key %d", i, kv, 2*i+1)
					}
				}
				if ts := th.LastRQTimestamp(); ts == 0 {
					t.Fatal("LastRQTimestamp() = 0 after a bundle range query")
				}
				snap := reg.Snapshot()
				if snap.Counter("ebrrq_bundle_entries_total") == 0 {
					t.Fatal("bundle entry counter never moved")
				}
				if hc := s.Health(); hc.Check != nil && hc.Check() != nil {
					t.Fatalf("healthy bundle set reports %v", hc.Check())
				}
			})
		}
	}
}

// TestBundleValidatedPublicAPI is a short timestamp-replay validated stress
// run through ebrrq.Set with the Bundle technique (the internal/dstest
// harness covers the structures directly; this covers the wrapper layer:
// guard, admit, metrics, trace plumbing).
func TestBundleValidatedPublicAPI(t *testing.T) {
	const (
		updaters = 3
		rqs      = 2
		keySpace = 256
	)
	n := updaters + rqs + 1
	checker := validate.NewChecker(n)
	s, err := ebrrq.NewWithOptions(ebrrq.SkipList, ebrrq.Lock, n, ebrrq.Options{
		Technique: ebrrq.Bundle,
		Recorder:  checker,
	})
	if err != nil {
		t.Fatal(err)
	}
	pre := s.NewThread()
	for k := int64(0); k < keySpace; k += 2 {
		pre.Insert(k, k)
	}
	pre.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < updaters; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := s.NewThread()
			defer th.Close()
			x := uint64(seed)*2654435761 + 1
			for !stop.Load() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				k := int64(x % keySpace)
				if x&8 == 0 {
					th.Insert(k, int64(x>>32))
				} else {
					th.Delete(k)
				}
			}
		}(int64(w + 1))
	}
	for w := 0; w < rqs; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := s.NewThread()
			defer th.Close()
			x := uint64(seed)*2654435761 + 1
			for !stop.Load() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				lo := int64(x % (keySpace - 64))
				res := th.RangeQuery(lo, lo+63)
				checker.AddRQ(th.ID(), th.LastRQTimestamp(), lo, lo+63, res)
			}
		}(int64(w + 100))
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if checker.RQs() == 0 {
		t.Fatal("no range queries executed")
	}
	if err := checker.Check(); err != nil {
		t.Fatalf("validation failed after %d events / %d rqs: %v",
			checker.Events(), checker.RQs(), err)
	}
}
