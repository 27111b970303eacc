package bundle

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// The allocator size class each height class is meant to land in. A field
// added to the header that pushes a wrapper past its limit fails here
// instead of silently costing every node 16-112 B.
var sizeClassLimit = [snumClasses]uintptr{128, 144, 176, 288}

func TestBundleSkipListNodeLayout(t *testing.T) {
	const slot = unsafe.Sizeof(atomic.Pointer[snode]{})
	hdrSize := unsafe.Sizeof(snode{})
	if got := unsafe.Offsetof(snode{}.next0) + slot; got != hdrSize {
		t.Fatalf("next0 ends at %d, header is %d B: next0 must be the last field", got, hdrSize)
	}
	wrappers := [snumClasses]struct{ size, towerOff uintptr }{
		{unsafe.Sizeof(snode2{}), unsafe.Offsetof(snode2{}.up)},
		{unsafe.Sizeof(snode4{}), unsafe.Offsetof(snode4{}.up)},
		{unsafe.Sizeof(snode8{}), unsafe.Offsetof(snode8{}.up)},
		{unsafe.Sizeof(snode20{}), unsafe.Offsetof(snode20{}.up)},
	}
	for c, w := range wrappers {
		if w.towerOff != hdrSize {
			t.Errorf("class %d: tower continues at %d, header ends at %d", c, w.towerOff, hdrSize)
		}
		if want := hdrSize + uintptr(sclassCap[c]-1)*slot; w.size != want {
			t.Errorf("class %d: wrapper is %d B, want %d", c, w.size, want)
		}
		if w.size > sizeClassLimit[c] {
			t.Errorf("class %d: wrapper is %d B, over its %d B size class", c, w.size, sizeClassLimit[c])
		}
	}
	if sclassCap[snumClasses-1] != skipMaxLevel {
		t.Errorf("top class holds %d levels, want skipMaxLevel = %d", sclassCap[snumClasses-1], skipMaxLevel)
	}
	for lv := 0; lv < skipMaxLevel; lv++ {
		c := sclassOf(lv)
		if lv >= sclassCap[c] || (c > 0 && lv < sclassCap[c-1]) {
			t.Errorf("sclassOf(%d) = %d, not the smallest class that holds it", lv, c)
		}
	}
	if sz := unsafe.Sizeof(sfreeList{}); sz%64 != 0 {
		t.Errorf("sfreeList is %d B, not whole cache lines", sz)
	}
}

// TestBundleSkipListNextAtInBounds touches every slot of every class. Under
// -race the compiler's checkptr instrumentation rejects a nextAt that leaves
// the node's allocation.
func TestBundleSkipListNextAtInBounds(t *testing.T) {
	for c := uint8(0); c < snumClasses; c++ {
		n := newSnode(c)
		if n.class != c {
			t.Fatalf("newSnode(%d).class = %d", c, n.class)
		}
		targets := make([]*snode, sclassCap[c])
		for lv := range targets {
			targets[lv] = newSnode(0)
			n.nextAt(lv).Store(targets[lv])
		}
		if n.next0.Load() != targets[0] {
			t.Fatalf("class %d: nextAt(0) is not next0", c)
		}
		for lv, want := range targets {
			if got := n.nextAt(lv).Load(); got != want {
				t.Fatalf("class %d: slot %d read back %p, want %p", c, lv, got, want)
			}
		}
	}
}

func TestBundleSkipListPoolKeepsClass(t *testing.T) {
	p := New(Config{MaxThreads: 1})
	l := NewSkipList(p)
	th := p.Register()
	for c := uint8(0); c < snumClasses; c++ {
		top := sclassCap[c] - 1
		n := l.alloc(th, 1, 1, top)
		if n.class != c {
			t.Fatalf("alloc(topLevel %d).class = %d, want %d", top, n.class, c)
		}
		l.free(th.ID(), n)
		// Reuse at the class's lowest height: same node, same class.
		low := 0
		if c > 0 {
			low = sclassCap[c-1]
		}
		if m := l.alloc(th, 2, 2, low); m != n || m.class != c || int(m.topLevel) != low {
			t.Fatalf("class %d: pool returned %p (class %d, topLevel %d), want %p", c, m, m.class, m.topLevel, n)
		}
	}
}

// TestBundleSkipListChurnKeepsClassInvariant runs two updaters over a small
// key space so nodes are recycled many times, then checks every reachable
// and every pooled node.
func TestBundleSkipListChurnKeepsClassInvariant(t *testing.T) {
	const threads, keySpace = 2, 512
	ops := 200000
	if testing.Short() {
		ops = 40000
	}
	p := New(Config{MaxThreads: threads})
	l := NewSkipList(p)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := p.Register()
			x := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < ops; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				k := int64(x>>8) % keySpace
				if x&1 == 0 {
					l.Insert(th, k, k)
				} else {
					l.Delete(th, k)
				}
			}
		}(w)
	}
	wg.Wait()

	recycled := 0
	for tid := range l.pools {
		for c, pool := range l.pools[tid].nodes {
			recycled += len(pool)
			for _, n := range pool {
				if int(n.class) != c {
					t.Fatalf("thread %d: class-%d pool holds a class-%d node", tid, c, n.class)
				}
			}
		}
	}
	if recycled == 0 {
		t.Fatal("churn recycled nothing: the pools were not exercised")
	}
	for lv := skipMaxLevel - 1; lv >= 0; lv-- {
		for n := l.head.nextAt(lv).Load(); n != l.tail; n = n.nextAt(lv).Load() {
			if int(n.topLevel) < lv {
				t.Fatalf("key %d linked at level %d above its topLevel %d", n.Key(), lv, n.topLevel)
			}
			if sclassOf(int(n.topLevel)) != n.class {
				t.Fatalf("key %d: topLevel %d in a class-%d node", n.Key(), n.topLevel, n.class)
			}
		}
	}
}
