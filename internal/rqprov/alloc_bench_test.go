package rqprov

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"ebrrq/internal/dcss"
	"ebrrq/internal/epoch"
	"ebrrq/internal/obs"
)

// steadyProvider builds a provider in mid-flight condition: a populated
// "structure" (visited nodes with published itimes), a limbo population with
// published dtimes spread around the current timestamp, and metrics enabled
// — the configuration every production range query runs in.
func steadyProvider(mode Mode) (*Thread, []*epoch.Node) {
	p := New(Config{MaxThreads: 2, Mode: mode, LimboSorted: true})
	p.EnableMetrics(obs.NewRegistry(2))
	th := p.Register()

	live := make([]*epoch.Node, 192)
	for i := range live {
		live[i] = newNode(int64(i), int64(i)*10)
		live[i].SetITime(1)
	}
	// Delete 64 further keys through the real update path so their dtimes
	// and retirement follow the production protocol.
	slots := make([]dcss.Slot, 64)
	for i := range slots {
		n := newNode(int64(1000+i), 0)
		th.StartOp()
		th.UpdateCAS(&slots[i], nil, unsafe.Pointer(n), []*epoch.Node{n}, nil, false)
		th.EndOp()
		th.StartOp()
		th.UpdateCAS(&slots[i], unsafe.Pointer(n), nil, nil, []*epoch.Node{n}, true)
		th.EndOp()
	}
	return th, live
}

// steadyRQ is one complete range query over the steady state.
func steadyRQ(th *Thread, live []*epoch.Node) []epoch.KV {
	th.StartOp()
	th.TraversalStart(0, math.MaxInt64)
	for _, n := range live {
		th.Visit(n)
	}
	r := th.TraversalEnd()
	th.EndOp()
	return r
}

// TestRQSteadyStateZeroAlloc proves the zero-allocation result pipeline:
// after the first queries establish the buffers' high-water marks, a
// complete range query — TraversalStart, every Visit, the announcement and
// limbo sweeps, finishResult's sort+dedup — performs zero heap allocations
// in every provider mode.
func TestRQSteadyStateZeroAlloc(t *testing.T) {
	for _, mode := range []Mode{ModeUnsafe, ModeLock, ModeHTM, ModeLockFree} {
		t.Run(mode.String(), func(t *testing.T) {
			th, live := steadyProvider(mode)
			for i := 0; i < 3; i++ { // establish high-water marks
				steadyRQ(th, live)
			}
			if allocs := testing.AllocsPerRun(200, func() {
				steadyRQ(th, live)
			}); allocs != 0 {
				t.Fatalf("steady-state range query allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkRQSteadyState measures the full provider-side range-query path
// (structure visits included) with -benchmem reporting 0 B/op, 0 allocs/op.
func BenchmarkRQSteadyState(b *testing.B) {
	for _, mode := range []Mode{ModeLock, ModeLockFree} {
		b.Run(mode.String(), func(b *testing.B) {
			th, live := steadyProvider(mode)
			for i := 0; i < 3; i++ {
				steadyRQ(th, live)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steadyRQ(th, live)
			}
		})
	}
}

// steadyUpdatePair is one insert and one delete of n through slot, each a
// complete operation: epoch bracket, announcement, the mode's linearizing
// CAS, timestamp publication. The node is not retired, so the pair can repeat
// on the same node.
func steadyUpdatePair(th *Thread, slot *dcss.Slot, n *epoch.Node) {
	n.InitKey(1, 10)
	th.StartOp()
	th.UpdateCAS(slot, nil, unsafe.Pointer(n), []*epoch.Node{n}, nil, false)
	th.EndOp()
	th.StartOp()
	th.UpdateCAS(slot, unsafe.Pointer(n), nil, nil, []*epoch.Node{n}, false)
	th.EndOp()
}

// warmUpdates runs enough pairs for the epoch to turn over many times, so the
// lock-free provider's descriptor pool and its bag slices reach steady state.
func warmUpdates(th *Thread, slot *dcss.Slot, n *epoch.Node) {
	for i := 0; i < 2000; i++ {
		steadyUpdatePair(th, slot, n)
	}
}

// TestUpdateSteadyStateZeroAlloc is the update-side twin of
// TestRQSteadyStateZeroAlloc: after warm-up an update performs zero heap
// allocations in every provider mode — the caller's node slices stay on its
// stack, and the lock-free provider's DCSS descriptors come from the
// thread's epoch-gated pool.
func TestUpdateSteadyStateZeroAlloc(t *testing.T) {
	for _, mode := range []Mode{ModeUnsafe, ModeLock, ModeHTM, ModeLockFree} {
		t.Run(mode.String(), func(t *testing.T) {
			th, _ := steadyProvider(mode)
			var slot dcss.Slot
			n := newNode(1, 10)
			warmUpdates(th, &slot, n)
			if allocs := testing.AllocsPerRun(500, func() {
				steadyUpdatePair(th, &slot, n)
			}); allocs != 0 {
				t.Fatalf("steady-state update pair allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// BenchmarkUpdateSteadyState measures the provider-side cost of one update
// (half an insert/delete pair) with -benchmem reporting 0 B/op, 0 allocs/op.
func BenchmarkUpdateSteadyState(b *testing.B) {
	for _, mode := range []Mode{ModeLock, ModeHTM, ModeLockFree} {
		b.Run(mode.String(), func(b *testing.B) {
			th, _ := steadyProvider(mode)
			var slot dcss.Slot
			n := newNode(1, 10)
			warmUpdates(th, &slot, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 2 {
				steadyUpdatePair(th, &slot, n)
			}
		})
	}
}

// BenchmarkFinishResult isolates the sort+dedup tail of TraversalEnd on a
// worst-case (reverse-ordered, duplicate-bearing) result buffer.
func BenchmarkFinishResult(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := New(Config{MaxThreads: 1, Mode: ModeLockFree})
			th := p.Register()
			tmpl := make([]epoch.KV, n)
			for i := range tmpl {
				tmpl[i] = epoch.KV{Key: int64((n - i) / 2), Value: int64(i)}
			}
			th.result = append(th.result[:0], tmpl...)
			th.finishResult() // establish capacity
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.result = append(th.result[:0], tmpl...)
				th.finishResult()
			}
		})
	}
}
