//go:build failpoints

package bundle

import (
	"runtime"
	"testing"

	"ebrrq/internal/fault"
)

// TestBundleFaultGCFloorScan forces the interleaving MinActiveTS's read
// order exists for: a GC pass is parked between its clock read and its slot
// scan while a query begins and two later queries advance the clock past
// its timestamp. The floor the pass returns must not exceed the query's
// timestamp, or gcBelow would truncate the entry the query resolves to.
// (With the clock read after the scan, the parked pass has already seen
// every slot empty and returns the advanced clock.)
func TestBundleFaultGCFloorScan(t *testing.T) {
	defer fault.Reset()
	p := New(Config{MaxThreads: 2})
	q := p.Register()

	act, release := fault.Stall()
	fault.Arm("bundle.gc.floorscan", act.Once())
	floor := make(chan uint64)
	go func() { floor <- p.MinActiveTS() }()
	for fault.Fired("bundle.gc.floorscan") == 0 {
		runtime.Gosched()
	}

	q.StartOp()
	ts := q.rqBegin(0)
	p.clock.AdvanceOrAdopt()
	p.clock.AdvanceOrAdopt()
	release()
	if got := <-floor; got > ts {
		t.Fatalf("GC floor %d is above the in-flight query's timestamp %d", got, ts)
	}
	q.rqEnd(nil)
	q.EndOp()
}
