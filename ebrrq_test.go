package ebrrq_test

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebrrq"
	"ebrrq/internal/obs"
)

var allStructures = []ebrrq.DataStructure{
	ebrrq.LFList, ebrrq.LazyList, ebrrq.SkipList,
	ebrrq.LFBST, ebrrq.Citrus, ebrrq.ABTree, ebrrq.BSlack,
}

var allTechniques = []ebrrq.Mode{
	ebrrq.Unsafe, ebrrq.Lock, ebrrq.HTM, ebrrq.LockFree, ebrrq.Snap, ebrrq.RLU,
}

func TestSupportMatrix(t *testing.T) {
	// Paper artifact Table 1.
	wantSnap := map[ebrrq.DataStructure]bool{
		ebrrq.LFList: true, ebrrq.LazyList: true, ebrrq.SkipList: true,
	}
	wantRLU := map[ebrrq.DataStructure]bool{
		ebrrq.LazyList: true, ebrrq.Citrus: true,
	}
	for _, d := range allStructures {
		for _, tech := range allTechniques {
			got := ebrrq.Supported(d, tech)
			want := true
			switch tech {
			case ebrrq.Snap:
				want = wantSnap[d]
			case ebrrq.RLU:
				want = wantRLU[d]
			}
			if got != want {
				t.Errorf("Supported(%v,%v) = %v, want %v", d, tech, got, want)
			}
			_, err := ebrrq.New(d, tech, 2)
			if (err == nil) != want {
				t.Errorf("New(%v,%v) err=%v, want ok=%v", d, tech, err, want)
			}
		}
	}
}

func TestQuickstartAllPairs(t *testing.T) {
	for _, d := range allStructures {
		for _, tech := range allTechniques {
			if !ebrrq.Supported(d, tech) {
				continue
			}
			t.Run(d.String()+"/"+tech.String(), func(t *testing.T) {
				s, err := ebrrq.New(d, tech, 2)
				if err != nil {
					t.Fatal(err)
				}
				th := s.NewThread()
				for i := int64(0); i < 100; i++ {
					if !th.Insert(i*2, i) {
						t.Fatalf("insert %d failed", i*2)
					}
				}
				if th.Insert(10, 1) {
					t.Fatal("duplicate insert succeeded")
				}
				if v, ok := th.Contains(42); !ok || v != 21 {
					t.Fatalf("Contains(42) = %d,%v", v, ok)
				}
				res := th.RangeQuery(10, 30)
				if len(res) != 11 || res[0].Key != 10 || res[10].Key != 30 {
					t.Fatalf("RangeQuery(10,30): %v", res)
				}
				for i := int64(0); i < 100; i += 4 {
					if !th.Delete(i * 2) {
						t.Fatalf("delete %d failed", i*2)
					}
				}
				res = th.RangeQuery(ebrrq.MinKey, ebrrq.MaxKey)
				if len(res) != 75 {
					t.Fatalf("full RQ len %d, want 75", len(res))
				}
			})
		}
	}
}

// TestMetricsEndToEnd runs a metrics-instrumented set through every layer
// the ISSUE requires and checks that the registry saw the traffic and that
// the Prometheus encoding carries the headline series.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry(4)
	s, err := ebrrq.NewWithOptions(ebrrq.SkipList, ebrrq.LockFree, 4,
		ebrrq.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := s.NewThread()
			r := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := r.Int63n(128)
				switch r.Intn(3) {
				case 0:
					th.Insert(k, k)
				case 1:
					th.Delete(k)
				default:
					th.Contains(k)
				}
			}
		}(int64(w))
	}
	rq := s.NewThread()
	nrq := 0
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		rq.RangeQuery(20, 100)
		nrq++
	}
	stop.Store(true)
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counter("ebrrq_rq_total"); got != uint64(nrq) {
		t.Errorf("ebrrq_rq_total = %d, want %d", got, nrq)
	}
	if snap.Counter("ebrrq_ops_total") == 0 {
		t.Error("ebrrq_ops_total stayed zero")
	}
	if snap.Counter("ebrrq_epoch_retires_total") == 0 {
		t.Error("ebrrq_epoch_retires_total stayed zero")
	}
	if h, ok := snap.Hist("ebrrq_rq_latency_ns"); !ok || h.Count != uint64(nrq) {
		t.Errorf("ebrrq_rq_latency_ns count = %d (ok=%v), want %d", h.Count, ok, nrq)
	}

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	prom := b.String()
	for _, series := range []string{
		"ebrrq_limbo_visited_total",
		"ebrrq_rq_latency_ns_bucket",
		"ebrrq_htm_aborts_total",
	} {
		if !strings.Contains(prom, series) {
			t.Errorf("prometheus output missing %s", series)
		}
	}
}

// TestMetricsDisabledNoRegistry checks the default (metrics off) path still
// works and allocates no registry machinery.
func TestMetricsDisabledNoRegistry(t *testing.T) {
	s, err := ebrrq.New(ebrrq.SkipList, ebrrq.Lock, 2)
	if err != nil {
		t.Fatal(err)
	}
	th := s.NewThread()
	th.Insert(1, 1)
	th.RangeQuery(0, 10)
	if v, ok := th.Contains(1); !ok || v != 1 {
		t.Fatalf("Contains(1) = %d,%v", v, ok)
	}
}

// TestConcurrentSmokeAllPairs exercises every supported pair briefly under
// concurrency through the public API.
func TestConcurrentSmokeAllPairs(t *testing.T) {
	for _, d := range allStructures {
		for _, tech := range allTechniques {
			if !ebrrq.Supported(d, tech) {
				continue
			}
			t.Run(d.String()+"/"+tech.String(), func(t *testing.T) {
				s, err := ebrrq.New(d, tech, 5)
				if err != nil {
					t.Fatal(err)
				}
				var stop atomic.Bool
				var wg sync.WaitGroup
				for w := 0; w < 3; w++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						th := s.NewThread()
						r := rand.New(rand.NewSource(seed))
						for !stop.Load() {
							k := r.Int63n(256)
							switch r.Intn(3) {
							case 0:
								th.Insert(k, k)
							case 1:
								th.Delete(k)
							default:
								th.Contains(k)
							}
						}
					}(int64(w))
				}
				rq := s.NewThread()
				deadline := time.Now().Add(120 * time.Millisecond)
				for time.Now().Before(deadline) {
					res := rq.RangeQuery(50, 150)
					for i := 1; i < len(res); i++ {
						if res[i-1].Key >= res[i].Key {
							t.Fatal("unsorted result")
						}
					}
				}
				stop.Store(true)
				wg.Wait()
			})
		}
	}
}
