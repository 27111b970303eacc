// Bundled lazy linked list (Heller et al. shape, bundled links): per-node
// locks, optimistic validation, wait-free searches, logical deletion via a
// marked flag — and a bundle on every next-link so range queries traverse
// the list as of their timestamp instead of scanning announcements.
//
// Point operations are the classic lazy-list protocol plus one pending
// entry prepend+stamp per modified link (two for an insert: the new node's
// own link needs a seed entry so queries can continue past it). The raw
// pointer write stays the point-op linearization; the stamp is the
// range-query linearization. Both happen under pred's lock, so a bundle's
// timestamps are non-increasing toward older entries.
//
// The thread that marks a node retires it (per-thread limbo stays
// dtime-sorted, LimboSorted substrate). Node visibility for queries never
// consults marked bits or itime/dtime: a node is in the ts-snapshot iff the
// bundle walk reaches it.

package bundle

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"ebrrq/internal/epoch"
)

type lnode struct {
	epoch.Node // must be first
	mu         sync.Mutex
	marked     atomic.Bool
	next       atomic.Pointer[lnode]
	bun        bundle
}

func lhdr(n *lnode) *epoch.Node    { return &n.Node }
func lowner(h *epoch.Node) *lnode  { return (*lnode)(unsafe.Pointer(h)) }
func lptr(p unsafe.Pointer) *lnode { return (*lnode)(p) }
func lraw(n *lnode) unsafe.Pointer { return unsafe.Pointer(n) }

// List is a concurrent sorted set whose range queries are served by
// per-link bundles.
type List struct {
	head  *lnode
	tail  *lnode
	prov  *Provider
	pools []lfreeList
}

type lfreeList struct {
	nodes []*lnode
	_     [40]byte
}

// NewList creates an empty bundled lazy list attached to the provider. The
// substrate's epoch domain recycles this list's nodes, and the provider's
// full-GC sweep walks this list's links.
func NewList(p *Provider) *List {
	tail := &lnode{}
	tail.InitKey(math.MaxInt64, 0)
	tail.SetITime(1)
	head := &lnode{}
	head.InitKey(math.MinInt64, 0)
	head.SetITime(1)
	head.next.Store(tail)
	head.bun.seed(1, lraw(tail))
	l := &List{head: head, tail: tail, prov: p}
	l.pools = make([]lfreeList, p.MaxThreads())
	p.Domain().SetFreeFunc(func(tid int, h *epoch.Node) {
		fl := &l.pools[tid]
		if len(fl.nodes) < poolCap {
			fl.nodes = append(fl.nodes, lowner(h))
		}
	})
	p.SetGCFunc(l.gcSweep)
	p.entriesLive.Add(1) // head's seed entry
	return l
}

func (l *List) alloc(t *Thread, key, value int64) *lnode {
	fl := &l.pools[t.ID()]
	var n *lnode
	if ln := len(fl.nodes); ln > 0 {
		n = fl.nodes[ln-1]
		fl.nodes = fl.nodes[:ln-1]
		t.PoolHit()
	} else {
		n = &lnode{}
		t.PoolMiss()
	}
	n.InitKey(key, value) // resets itime/dtime/limbo link
	n.marked.Store(false)
	n.bun.reset()
	return n
}

func (l *List) dealloc(t *Thread, n *lnode) {
	fl := &l.pools[t.ID()]
	if len(fl.nodes) < poolCap {
		fl.nodes = append(fl.nodes, n)
	}
}

// search returns (pred, curr) with pred.key < key <= curr.key over the raw
// links, without locks.
func (l *List) search(key int64) (*lnode, *lnode) {
	pred := l.head
	curr := pred.next.Load()
	for curr.Key() < key {
		pred = curr
		curr = curr.next.Load()
	}
	return pred, curr
}

func lvalidate(pred, curr *lnode) bool {
	return !pred.marked.Load() && !curr.marked.Load() && pred.next.Load() == curr
}

// Insert adds key with the given value; false if key is present.
func (l *List) Insert(t *Thread, key, value int64) bool {
	t.StartOp()
	defer t.EndOp()
	var n *lnode
	for {
		pred, curr := l.search(key)
		pred.mu.Lock()
		if !lvalidate(pred, curr) {
			pred.mu.Unlock()
			continue
		}
		if curr.Key() == key {
			pred.mu.Unlock()
			if n != nil {
				l.dealloc(t, n)
			}
			return false
		}
		if n == nil {
			n = l.alloc(t, key, value)
		}
		n.next.Store(curr)
		// Seed the new node's bundle pending BEFORE publishing the raw
		// link: once pred.next (or pred's bundle) exposes n, a query can
		// continue through n's own bundle — at worst waiting out the
		// stamp, never finding it empty.
		en := n.bun.prepend(lraw(curr))
		// Hold n's lock until its seed entry is stamped: the raw link makes
		// n a lockable predecessor at once, and an insert after n that read
		// the clock before we do would put an older timestamp above the
		// seed, hiding its node from queries between the two timestamps.
		n.mu.Lock()
		pred.next.Store(n) // point-op linearization
		ep := pred.bun.prepend(lraw(n))
		v := t.stamp2(en, ep) // range-query linearization
		n.mu.Unlock()
		n.SetITime(v)
		t.record(v, lhdr(n), nil)
		t.gcInline(&pred.bun)
		pred.mu.Unlock()
		return true
	}
}

// Delete removes key; false if key is absent.
func (l *List) Delete(t *Thread, key int64) bool {
	t.StartOp()
	defer t.EndOp()
	for {
		pred, curr := l.search(key)
		if curr.Key() != key {
			return false
		}
		pred.mu.Lock()
		curr.mu.Lock()
		if !lvalidate(pred, curr) {
			curr.mu.Unlock()
			pred.mu.Unlock()
			continue
		}
		// Mark before the clock read: a point op that still sees curr
		// unmarked after a timestamp v was read is ordered before v.
		curr.marked.Store(true)
		succ := curr.next.Load()
		pred.next.Store(succ) // point-op linearization (unlink)
		ep := pred.bun.prepend(lraw(succ))
		v := t.stamp1(ep) // range-query linearization
		curr.SetDTime(v)
		t.record(v, nil, lhdr(curr))
		t.Retire(lhdr(curr))
		t.gcInline(&pred.bun)
		curr.mu.Unlock()
		pred.mu.Unlock()
		return true
	}
}

// Contains reports whether key is present (wait-free, raw links).
func (l *List) Contains(t *Thread, key int64) (int64, bool) {
	t.StartOp()
	defer t.EndOp()
	_, curr := l.search(key)
	if curr.Key() != key || curr.marked.Load() {
		return 0, false
	}
	return curr.Value(), true
}

// RangeQuery returns all pairs with keys in [low, high], linearized at the
// query's timestamp. The walk dereferences every link through its bundle —
// the node set visited IS the ts-snapshot; no marks, itime/dtime or
// announcement scans are consulted. The result is valid until the thread's
// next range query.
func (l *List) RangeQuery(t *Thread, low, high int64) []epoch.KV {
	t.StartOp()
	defer t.EndOp()
	ts := t.rqBegin(low)
	res := t.resultBuf()
	curr := lptr(t.deref(&l.head.bun, ts))
	for curr != nil && curr.Key() < low {
		curr = lptr(t.deref(&curr.bun, ts))
	}
	for curr != nil && curr.Key() <= high {
		res = append(res, epoch.KV{Key: curr.Key(), Value: curr.Value()})
		curr = lptr(t.deref(&curr.bun, ts))
	}
	return t.rqEnd(res)
}

// Size counts live nodes (quiescent use only).
func (l *List) Size() int {
	n := 0
	for curr := l.head.next.Load(); curr != l.tail; curr = curr.next.Load() {
		if !curr.marked.Load() {
			n++
		}
	}
	return n
}

// gcSweep locks every reachable node in turn and prunes its bundle below
// min; registered as the provider's full-GC pass.
func (l *List) gcSweep(min uint64) int {
	n := 0
	for c := l.head; c != nil && c != l.tail; c = c.next.Load() {
		c.mu.Lock()
		n += c.bun.gcBelow(min)
		c.mu.Unlock()
	}
	return n
}

// MaxBundleLen returns the longest bundle over reachable links (tests).
func (l *List) MaxBundleLen() int {
	max := 0
	for c := l.head; c != nil && c != l.tail; c = c.next.Load() {
		if n := c.bun.len(); n > max {
			max = n
		}
	}
	return max
}
