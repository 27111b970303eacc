package skiplist

import (
	"testing"

	"ebrrq/internal/rqprov"
)

// TestInsertDeleteSteadyStateZeroAlloc: on a warmed list — node pools primed
// for the height classes this thread's tower sequence draws, and in lock-free
// mode the provider's descriptor pool turning over — an Insert and the Delete
// that undoes it perform no heap allocation: the single-node inode/dnode
// slices stay on the stack and no DCSS descriptor is allocated.
func TestInsertDeleteSteadyStateZeroAlloc(t *testing.T) {
	for _, mode := range []rqprov.Mode{rqprov.ModeLock, rqprov.ModeHTM, rqprov.ModeLockFree} {
		t.Run(mode.String(), func(t *testing.T) {
			p := rqprov.New(rqprov.Config{MaxThreads: 1, Mode: mode, LimboSorted: true})
			l := New(p)
			th := p.Register()
			for k := int64(0); k < 1024; k += 2 {
				l.Insert(th, k, k)
			}
			pair := func() {
				if !l.Insert(th, 501, 501) || !l.Delete(th, 501) {
					t.Fatal("insert/delete pair on an absent key failed")
				}
			}
			for i := 0; i < 20000; i++ {
				pair()
			}
			if allocs := testing.AllocsPerRun(2000, pair); allocs != 0 {
				t.Fatalf("steady-state Insert+Delete allocates %.1f objects, want 0", allocs)
			}
		})
	}
}
