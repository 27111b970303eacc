package main

import (
	"sync/atomic"
	"time"
	"unsafe"

	"ebrrq"
	"ebrrq/internal/bundle"
	"ebrrq/internal/dcss"
	"ebrrq/internal/ds/abtree"
	"ebrrq/internal/ds/skiplist"
	"ebrrq/internal/epoch"
	"ebrrq/internal/rqprov"
)

// The probes time each inner layer's public functions directly: one
// goroutine, nothing else running, fixed iteration counts, so a probe's
// number moves only when its layer's code does.
const (
	probeIters     = 1 << 20 // nanosecond-scale calls
	probeDSIters   = 1 << 18 // structure point operations
	probeScanKeys  = 1 << 21 // keys covered by the scan probe
	probeRouteKeys = 1 << 16
	probeAllowance = 90 * time.Second // liveness deadline for all probes
)

var providerMode = map[ebrrq.Mode]rqprov.Mode{
	ebrrq.Lock:     rqprov.ModeLock,
	ebrrq.HTM:      rqprov.ModeHTM,
	ebrrq.LockFree: rqprov.ModeLockFree,
}

func perIter(start time.Time, iters int) float64 {
	return float64(time.Since(start)) / float64(iters)
}

// runProbes fills the probe-measured per-layer metrics. tgt is the traced
// pass's set, still populated, used only by the router probe.
func runProbes(res *passResult, w *workload, tgt *target, seed int64) {
	res.Layer["rqprov.update_cas_ns"] = probeUpdateCAS(providerMode[w.mode])
	res.Layer["rqprov.rq_fixed_ns"] = probeRQFixed(providerMode[w.mode])
	res.Layer["rqprov.clock_advance_ns"] = probeClockAdvance()
	pair := probeOpPair()
	res.Layer["epoch.op_pair_ns"] = pair
	res.Layer["epoch.retire_ns"] = probeRetire() - pair
	res.Layer["dcss.exec_ns"] = probeDCSS()
	res.Layer["sharded.route_ns"] = probeRoute(tgt, seed)
	probeDS(res, w, seed)
}

// probeUpdateCAS times an uncontended rqprov.UpdateCAS that swings one slot
// between two nodes, announcing the outgoing node as deleted.
func probeUpdateCAS(mode rqprov.Mode) float64 {
	p := rqprov.New(rqprov.Config{MaxThreads: 1, Mode: mode, LimboSorted: true})
	t := p.Register()
	cur, nxt := new(epoch.Node), new(epoch.Node)
	cur.InitKey(1, 1)
	nxt.InitKey(2, 2)
	var slot dcss.Slot
	slot.Store(unsafe.Pointer(cur))
	ins, del := make([]*epoch.Node, 1), make([]*epoch.Node, 1)
	t.StartOp()
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		ins[0], del[0] = nxt, cur
		if !t.UpdateCAS(&slot, unsafe.Pointer(cur), unsafe.Pointer(nxt), ins, del, false) {
			panic("probe: uncontended UpdateCAS failed")
		}
		cur, nxt = nxt, cur
	}
	ns := perIter(start, probeIters)
	t.EndOp()
	return ns
}

// probeRQFixed times a range query that visits nothing: epoch bracket,
// timestamp acquisition, announcement scan and limbo sweep over empty bags.
func probeRQFixed(mode rqprov.Mode) float64 {
	p := rqprov.New(rqprov.Config{MaxThreads: 1, Mode: mode, LimboSorted: true})
	t := p.Register()
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		t.StartOp()
		t.TraversalStart(0, 99)
		if len(t.TraversalEnd()) != 0 {
			panic("probe: empty traversal returned keys")
		}
		t.EndOp()
	}
	return perIter(start, probeIters)
}

func probeClockAdvance() float64 {
	c := rqprov.NewSharedClock()
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		c.AdvanceOrAdopt()
	}
	return perIter(start, probeIters)
}

func probeOpPair() float64 {
	t := epoch.NewDomain(1).Register()
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		t.StartOp()
		t.EndOp()
	}
	return perIter(start, probeIters)
}

// probeRetire times StartOp + Retire + EndOp per node, so the epoch
// advances, bag rotations and reclamation that retiring triggers are
// amortised in; the caller subtracts the bare op pair.
func probeRetire() float64 {
	t := epoch.NewDomain(1).Register()
	nodes := make([]epoch.Node, probeIters)
	start := time.Now()
	for i := range nodes {
		t.StartOp()
		t.Retire(&nodes[i])
		t.EndOp()
	}
	return perIter(start, probeIters)
}

// probeDCSS times an uncontended descriptor: allocate, install, decide.
func probeDCSS() float64 {
	var ts atomic.Uint64
	a, b := new(epoch.Node), new(epoch.Node)
	cur, nxt := unsafe.Pointer(a), unsafe.Pointer(b)
	var slot dcss.Slot
	slot.Store(cur)
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		d := &dcss.Descriptor{A1: &ts, Exp1: 0, S: &slot, Old: cur, New: nxt}
		if d.Exec() != dcss.Succeeded {
			panic("probe: uncontended DCSS failed")
		}
		cur, nxt = nxt, cur
	}
	return perIter(start, probeIters)
}

// probeRoute is the router's cost per point operation: ShardedThread.Contains
// minus the owning shard's Thread.Contains on the same keys, 0 for an
// unsharded workload.
func probeRoute(tgt *target, seed int64) float64 {
	s := tgt.sharded
	if s == nil {
		return 0
	}
	st := s.NewThread()
	defer st.Close()
	_, keyMax := s.KeyRange()
	g := newOpGen(seed, numWorkers+1, role{opContains: mixUnits}, keyMax+1, 1)
	keys := make([]int64, probeRouteKeys)
	direct := make([]*ebrrq.Thread, probeRouteKeys)
	for i := range keys {
		keys[i] = g.next().key
		shard := 0
		for shard+1 < s.Shards() && s.ShardStart(shard+1) <= keys[i] {
			shard++
		}
		direct[i] = st.ShardThread(shard)
	}
	var routed, unrouted time.Duration
	for rep := 0; rep < 4; rep++ { // first repetition warms the cache for both
		t0 := time.Now()
		for _, k := range keys {
			st.Contains(k)
		}
		t1 := time.Now()
		for i, k := range keys {
			direct[i].Contains(k)
		}
		t2 := time.Now()
		if rep > 0 {
			routed += t1.Sub(t0)
			unrouted += t2.Sub(t1)
		}
	}
	return float64(routed-unrouted) / float64(3*probeRouteKeys)
}

// dsOps is the bare structure under the workload's set, bound to its single
// probe thread.
type dsOps struct {
	insert   func(k int64) bool
	remove   func(k int64) bool
	contains func(k int64) bool
	scan     func(lo, hi int64) int
}

// newDS builds the workload's structure without a linearizing provider: the
// rqprov structures in Unsafe mode, the bundle technique's own skip list.
func newDS(w *workload) dsOps {
	if w.technique == ebrrq.Bundle {
		p := bundle.New(bundle.Config{MaxThreads: 1})
		l, t := bundle.NewSkipList(p), p.Register()
		return dsOps{
			insert:   func(k int64) bool { return l.Insert(t, k, k) },
			remove:   func(k int64) bool { return l.Delete(t, k) },
			contains: func(k int64) bool { _, ok := l.Contains(t, k); return ok },
			scan:     func(lo, hi int64) int { return len(l.RangeQuery(t, lo, hi)) },
		}
	}
	p := rqprov.New(rqprov.Config{MaxThreads: 1, Mode: rqprov.ModeUnsafe, LimboSorted: true})
	t := p.Register()
	var s interface {
		Insert(t *rqprov.Thread, key, value int64) bool
		Delete(t *rqprov.Thread, key int64) bool
		Contains(t *rqprov.Thread, key int64) (int64, bool)
		RangeQuery(t *rqprov.Thread, low, high int64) []epoch.KV
	}
	switch w.structure {
	case ebrrq.SkipList:
		s = skiplist.New(p)
	case ebrrq.ABTree:
		s = abtree.New(p)
	default:
		panic("probe: no bare structure for " + w.structure.String())
	}
	return dsOps{
		insert:   func(k int64) bool { return s.Insert(t, k, k) },
		remove:   func(k int64) bool { return s.Delete(t, k) },
		contains: func(k int64) bool { _, ok := s.Contains(t, k); return ok },
		scan:     func(lo, hi int64) int { return len(s.RangeQuery(t, lo, hi)) },
	}
}

// probeDS times the bare structure at the workload's key range, prefilled
// like the set: the gap between these and set.* is what the provider, the
// technique and the facade add.
func probeDS(res *passResult, w *workload, seed int64) {
	ds := newDS(w)
	g := newOpGen(seed, numWorkers+2, role{opInsert: mixUnits}, w.keyRange, w.rqWidth)
	for n := int64(0); n < w.keyRange/2; {
		if ds.insert(g.next().key) {
			n++
		}
	}

	start := time.Now()
	for i := 0; i < probeDSIters; i++ {
		ds.contains(g.next().key)
	}
	res.Layer["ds.contains_ns"] = perIter(start, probeDSIters)

	start = time.Now()
	for i := 0; i < probeDSIters; i++ {
		if k := g.next().key; i%2 == 0 {
			ds.insert(k)
		} else {
			ds.remove(k)
		}
	}
	res.Layer["ds.update_ns"] = perIter(start, probeDSIters)

	scans := int(probeScanKeys / w.rqWidth)
	g = newOpGen(seed, numWorkers+3, role{opRQ: mixUnits}, w.keyRange, w.rqWidth)
	keys := 0
	start = time.Now()
	for i := 0; i < scans; i++ {
		o := g.next()
		keys += ds.scan(o.key, o.hi)
	}
	res.Layer["ds.scan_ns_per_key"] = ratio(float64(time.Since(start)), float64(keys))
}
