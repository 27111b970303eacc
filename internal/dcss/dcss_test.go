package dcss

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPackPtrFlagsRoundtrip(t *testing.T) {
	if Ptr(nil) != nil {
		t.Fatal("Ptr(nil) must be nil")
	}
	if Pack(nil, 0) != nil {
		t.Fatal("Pack(nil, 0) must be nil")
	}
	x := new(int64)
	for _, flags := range []uintptr{0, 2, 4, 6} {
		v := Pack(unsafe.Pointer(x), flags)
		if Ptr(v) != unsafe.Pointer(x) {
			t.Fatalf("flags %d: pointer mangled", flags)
		}
		if Flags(v) != flags {
			t.Fatalf("flags %d: got %d", flags, Flags(v))
		}
	}
	// Flag bits outside 1-2 are masked off.
	if Flags(Pack(unsafe.Pointer(x), 0xff)) != 6 {
		t.Fatal("flag mask not applied")
	}
}

func TestTypedNilAfterRoundtrip(t *testing.T) {
	// Regression: converting the result of Ptr through a typed pointer must
	// preserve nil-ness (the compiler assumes unsafe.Add results are
	// non-nil, so the zero-offset path must bypass it).
	type nodeT struct{ a, b int64 }
	var s Slot
	n := (*nodeT)(Ptr(s.Load()))
	if n != nil {
		t.Fatal("typed nil lost through Ptr round-trip")
	}
}

func TestSlotLoadStoreCAS(t *testing.T) {
	var s Slot
	a, b := new(int64), new(int64)
	s.Store(unsafe.Pointer(a))
	if s.Load() != unsafe.Pointer(a) {
		t.Fatal("store/load")
	}
	if s.CAS(unsafe.Pointer(b), unsafe.Pointer(a)) {
		t.Fatal("CAS with wrong expected succeeded")
	}
	if !s.CAS(unsafe.Pointer(a), unsafe.Pointer(b)) {
		t.Fatal("CAS failed")
	}
	if s.Load() != unsafe.Pointer(b) {
		t.Fatal("CAS did not install")
	}
}

func TestDCSSSemantics(t *testing.T) {
	var ts atomic.Uint64
	ts.Store(5)
	var s Slot
	a, b := new(int64), new(int64)
	s.Store(unsafe.Pointer(a))

	// Wrong TS: must fail and leave the slot unchanged.
	d := &Descriptor{A1: &ts, Exp1: 4, S: &s, Old: unsafe.Pointer(a), New: unsafe.Pointer(b)}
	if st := d.Exec(); st != FailedA1 {
		t.Fatalf("status = %v, want FailedA1", st)
	}
	if s.Load() != unsafe.Pointer(a) {
		t.Fatal("slot changed on FailedA1")
	}

	// Wrong old value: FailedValue.
	d = &Descriptor{A1: &ts, Exp1: 5, S: &s, Old: unsafe.Pointer(b), New: unsafe.Pointer(a)}
	if st := d.Exec(); st != FailedValue {
		t.Fatalf("status = %v, want FailedValue", st)
	}

	// Both match: Succeeded.
	d = &Descriptor{A1: &ts, Exp1: 5, S: &s, Old: unsafe.Pointer(a), New: unsafe.Pointer(b)}
	if st := d.Exec(); st != Succeeded {
		t.Fatalf("status = %v, want Succeeded", st)
	}
	if s.Load() != unsafe.Pointer(b) {
		t.Fatal("slot not updated on success")
	}

	// Reset: the decided descriptor is as good as new, payload capacity kept.
	d.INodes = append(d.INodes, nil, nil)
	d.Reset()
	if d.StatusNow() != Undecided || d.S != nil || d.Old != nil || d.New != nil ||
		len(d.INodes) != 0 || cap(d.INodes) < 2 {
		t.Fatalf("Reset left %+v", d)
	}
	d.Exp1, d.S, d.Old, d.New = 4, &s, unsafe.Pointer(b), unsafe.Pointer(a)
	if st := d.Exec(); st != FailedA1 {
		t.Fatalf("re-armed descriptor: status = %v, want FailedA1 (a stale Succeeded would mean Reset kept the status)", st)
	}
}

// TestDCSSAtomicityUnderContention: concurrent DCSS increments guarded by a
// timestamp check must never commit against a stale timestamp, and the slot
// must reflect exactly the successful operations.
func TestDCSSAtomicityUnderContention(t *testing.T) {
	var ts atomic.Uint64
	ts.Store(1)
	var s Slot
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i)
	}
	s.Store(unsafe.Pointer(&vals[0]))

	const workers = 6
	const iters = 3000
	var successes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				if r.Intn(10) == 0 {
					ts.Add(1) // simulate an RQ linearizing
					continue
				}
				for {
					cur := ts.Load()
					old := s.Load()
					idx := (*int64)(old)
					next := unsafe.Pointer(&vals[(*idx+1)%int64(len(vals))])
					d := &Descriptor{A1: &ts, Exp1: cur, S: &s, Old: old, New: next}
					st := d.Exec()
					if st == Succeeded {
						successes.Add(1)
						break
					}
					if st == FailedValue {
						continue // raced with another success; re-read
					}
					// FailedA1: retry with fresh timestamp.
				}
			}
		}(int64(w))
	}
	wg.Wait()
	got := *(*int64)(s.Load())
	want := successes.Load() % int64(len(vals))
	if got != want {
		t.Fatalf("slot shows %d increments (mod), want %d", got, want)
	}
}

func TestQuickFlagMaskIdempotent(t *testing.T) {
	x := new(int64)
	f := func(raw uint8) bool {
		fl := uintptr(raw)
		v := Pack(unsafe.Pointer(x), fl)
		return Ptr(v) == unsafe.Pointer(x) && Flags(v) == (fl&6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
