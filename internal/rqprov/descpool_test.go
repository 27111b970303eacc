package rqprov

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"ebrrq/internal/dcss"
	"ebrrq/internal/epoch"
	"ebrrq/internal/obs"
)

// size returns how many descriptors the pool holds.
func (pl *descPool) size() int {
	n := len(pl.free)
	for i := range pl.used {
		n += len(pl.used[i].descs)
	}
	return n
}

// holds reports whether d sits anywhere in the pool.
func (pl *descPool) holds(d *dcss.Descriptor) bool {
	for _, x := range pl.free {
		if x == d {
			return true
		}
	}
	for i := range pl.used {
		for _, x := range pl.used[i].descs {
			if x == d {
				return true
			}
		}
	}
	return false
}

// TestDescPoolGraceArithmetic drives the pool with an arbitrary
// non-decreasing epoch sequence (repeats, single steps, jumps over whole
// slots) and checks the slot arithmetic on its own: a descriptor released at
// local epoch e never comes back before local epoch e+3, comes back at most
// once per release, and comes back Reset.
func TestDescPoolGraceArithmetic(t *testing.T) {
	dom := epoch.NewDomain(1)
	var pl descPool
	rng := rand.New(rand.NewSource(1))
	releasedAt := map[*dcss.Descriptor]uint64{}
	var held []*dcss.Descriptor
	recycled := 0
	e := uint64(3)
	for step := 0; step < 50000; step++ {
		switch rng.Intn(8) {
		case 0, 1, 2:
			e++
		case 3:
			e += 2 + uint64(rng.Intn(5))
		}
		held = held[:0]
		for i := rng.Intn(5); i > 0; i-- {
			d := pl.get(e, dom)
			if d == nil {
				d = new(dcss.Descriptor)
			} else {
				at, ok := releasedAt[d]
				if !ok {
					t.Fatalf("epoch %d: pool returned a descriptor it was not holding", e)
				}
				if e < at+3 {
					t.Fatalf("descriptor released at epoch %d returned at epoch %d", at, e)
				}
				if d.StatusNow() != dcss.Undecided || d.S != nil || d.Old != nil || d.New != nil ||
					len(d.INodes) != 0 || len(d.DNodes) != 0 {
					t.Fatalf("recycled descriptor was not reset: %+v", d)
				}
				delete(releasedAt, d)
				recycled++
			}
			// What an attempt leaves behind.
			d.S, d.Old = new(dcss.Slot), unsafe.Pointer(d)
			d.INodes = append(d.INodes, new(epoch.Node))
			held = append(held, d)
		}
		for _, d := range held {
			pl.put(e, d)
			releasedAt[d] = e
		}
		if n := pl.size(); n > descBags*descBagCap {
			t.Fatalf("pool holds %d descriptors, bound is %d", n, descBags*descBagCap)
		}
	}
	if recycled == 0 {
		t.Fatal("the pool never recycled a descriptor: the test exercised nothing")
	}
}

// TestDescPoolBoundedInOneCriticalSection: no grace period can elapse inside
// one critical section (the shape of the repo benchmark's UpdateCAS probe),
// so every attempt misses the pool. The current epoch's bag fills to its cap
// and further releases are dropped: the pool stays within its bound and the
// garbage collector keeps the heap flat.
func TestDescPoolBoundedInOneCriticalSection(t *testing.T) {
	iters := 1 << 20
	if testing.Short() {
		iters = 1 << 16
	}
	p := New(Config{MaxThreads: 1, Mode: ModeLockFree, LimboSorted: true})
	th := p.Register()
	cur, nxt := newNode(1, 1), newNode(2, 2)
	var slot dcss.Slot
	slot.Store(unsafe.Pointer(cur))
	ins, del := make([]*epoch.Node, 1), make([]*epoch.Node, 1)
	swing := func(n int) {
		for i := 0; i < n; i++ {
			ins[0], del[0] = nxt, cur
			if !th.UpdateCAS(&slot, unsafe.Pointer(cur), unsafe.Pointer(nxt), ins, del, false) {
				t.Fatal("uncontended UpdateCAS failed")
			}
			cur, nxt = nxt, cur
		}
	}
	th.StartOp()
	swing(2 * descBagCap) // fill the bag before the first heap reading
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	swing(iters)
	runtime.GC()
	runtime.ReadMemStats(&after)
	th.EndOp()
	if n := th.descs.size(); n == 0 || n > descBags*descBagCap {
		t.Fatalf("pool holds %d descriptors after %d updates in one critical section, want 1..%d",
			n, iters, descBags*descBagCap)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Fatalf("live heap grew by %d bytes over %d updates", grew, iters)
	}
}

// TestDescPoolDropsOutsideOperation: outside StartOp/EndOp the thread's local
// epoch is stale, so a release there must not be tagged with it.
func TestDescPoolDropsOutsideOperation(t *testing.T) {
	p := New(Config{MaxThreads: 1, Mode: ModeLockFree})
	th := p.Register()
	var slot dcss.Slot
	n := newNode(1, 1)
	if !th.UpdateCAS(&slot, nil, unsafe.Pointer(n), []*epoch.Node{n}, nil, false) {
		t.Fatal("UpdateCAS failed")
	}
	if got := th.descs.size(); got != 0 {
		t.Fatalf("pool kept %d descriptor(s) released outside an operation", got)
	}
}

// TestDescPoolMetrics: every lock-free attempt is counted as exactly one hit
// or one miss under the documented names, apart from the node pools' counters.
func TestDescPoolMetrics(t *testing.T) {
	reg := obs.NewRegistry(1)
	p := New(Config{MaxThreads: 1, Mode: ModeLockFree})
	p.EnableMetrics(reg)
	th := p.Register()
	var slot dcss.Slot
	n := newNode(1, 10)
	const pairs = 500
	for i := 0; i < pairs; i++ {
		steadyUpdatePair(th, &slot, n)
	}
	snap := reg.Snapshot()
	hits, misses := snap.Counter("ebrrq_desc_pool_hits_total"), snap.Counter("ebrrq_desc_pool_misses_total")
	if hits+misses != 2*pairs || hits == 0 || misses == 0 {
		t.Fatalf("hits %d + misses %d over %d uncontended attempts", hits, misses, 2*pairs)
	}
	if got := snap.Counter("ebrrq_pool_hits_total") + snap.Counter("ebrrq_pool_misses_total"); got != 0 {
		t.Fatalf("descriptor traffic leaked into the node-pool counters: %d", got)
	}
}
