// Package skiplist implements the optimistic lazy skip list of Herlihy,
// Lev, Luchangco and Shavit ("SkipList" in the paper's Figure 4): per-node
// locks, wait-free searches, logical deletion via a marked flag, and a
// fullyLinked flag that marks the linearization of insertions.
//
// RQ integration: insertion linearizes at the write that sets fullyLinked
// (after the node is linked at every level), and deletion linearizes at the
// write that sets marked — both routed through UpdateCAS on dcss.Slot flag
// words so all three providers apply. A traversal that encounters a node
// whose insertion has not yet linearized simply waits for (or, lock-free,
// helps derive) its itime, exactly as the paper prescribes.
//
// The marking thread unlinks and retires its own victim, so limbo lists are
// dtime-sorted (LimboSorted=true).
package skiplist

import (
	"math"
	"runtime"
	"sync"
	"unsafe"

	"ebrrq/internal/dcss"
	"ebrrq/internal/epoch"
	"ebrrq/internal/fault"
	"ebrrq/internal/rqprov"
	"ebrrq/internal/snapc"
)

// maxLevel is the number of tower levels (0..maxLevel-1). A node reaches
// level i with probability 2^-i, so 20 levels index ~2^20 keys.
const maxLevel = 20

// poolCap bounds each per-thread, per-class free pool.
const poolCap = 4096

var flagSentinel int64

func sentinelPtr() unsafe.Pointer { return unsafe.Pointer(&flagSentinel) }

// node is the header of every skip-list node and ends in tower slot 0. The
// remaining slots follow it in the same allocation (see the class wrappers
// below), so nothing may be declared after next0.
type node struct {
	epoch.Node // must be first
	mu         sync.Mutex
	marked     dcss.Slot // nil = live; deletion linearization point
	fullyLink  dcss.Slot // nil = pending; insertion linearization point
	topLevel   int32
	class      uint8     // height class; stamped by newNode, never rewritten
	next0      dcss.Slot // tower slot 0; holds *node, like every tower slot
}

// Height classes: a node is allocated as the smallest wrapper whose tower
// holds its topLevel. Geometric(1/2) heights put 75 % / 19 % / 6 % / 0.4 % of
// nodes in the four classes, which land in the 128 / 144 / 176 / 288 B
// allocator size classes — ~134 B per node on average.
const numClasses = 4

type (
	node2 struct {
		node
		up [1]dcss.Slot
	}
	node4 struct {
		node
		up [3]dcss.Slot
	}
	node8 struct {
		node
		up [7]dcss.Slot
	}
	node20 struct {
		node
		up [maxLevel - 1]dcss.Slot
	}
)

// classCap is the number of tower slots a node of each class owns: slot 0 in
// the header plus the wrapper's.
var classCap = [numClasses]int{
	1 + len(node2{}.up), 1 + len(node4{}.up), 1 + len(node8{}.up), 1 + len(node20{}.up),
}

// classOf returns the smallest class whose tower holds levels 0..topLevel.
func classOf(topLevel int) uint8 {
	c := uint8(0)
	for topLevel >= classCap[c] {
		c++
	}
	return c
}

// newNode allocates a zeroed node of the given class.
func newNode(class uint8) *node {
	var n *node
	switch class {
	case 0:
		n = &new(node2).node
	case 1:
		n = &new(node4).node
	case 2:
		n = &new(node8).node
	default:
		n = &new(node20).node
	}
	n.class = class
	return n
}

// nextAt returns tower slot lv, which holds the *node that follows n at
// level lv. lv must be below classCap[n.class]; callers guarantee it by only
// indexing a node at a level they reached it on (at most its topLevel). That
// stays true for a stale reference to a recycled node, because a node keeps
// its class — and so its allocation — for life: the pools are per class. The
// arithmetic is spelled through uintptr rather than unsafe.Add because that
// is the form checkptr instruments: under -race an index outside n's
// allocation throws.
func (n *node) nextAt(lv int) *dcss.Slot {
	return (*dcss.Slot)(unsafe.Pointer(uintptr(unsafe.Pointer(&n.next0)) + uintptr(lv)*unsafe.Sizeof(n.next0)))
}

func ptr(v unsafe.Pointer) *node      { return (*node)(dcss.Ptr(v)) }
func fromNode(n *node) unsafe.Pointer { return unsafe.Pointer(n) }
func hdr(n *node) *epoch.Node         { return &n.Node }
func ownerOf(h *epoch.Node) *node     { return (*node)(unsafe.Pointer(h)) }

func (n *node) isMarked() bool      { return n.marked.Load() != nil }
func (n *node) isFullyLinked() bool { return n.fullyLink.Load() != nil }

// List is a concurrent sorted set with linearizable range queries.
type List struct {
	head  *node
	tail  *node
	prov  *rqprov.Provider
	snap  *snapc.Registry // non-nil: range queries use the Snap-collector
	pools []freeList
	rngs  []rngState
}

// freeList is one thread's recycling pools, one per height class, padded to
// two cache lines.
type freeList struct {
	nodes [numClasses][]*node
	_     [32]byte
}

type rngState struct {
	s uint64
	_ [56]byte
}

// New creates an empty skip list attached to the provider.
func New(p *rqprov.Provider) *List {
	tail := newNode(numClasses - 1)
	tail.topLevel = maxLevel - 1
	tail.InitKey(math.MaxInt64, 0)
	tail.SetITime(1)
	tail.fullyLink.Store(sentinelPtr())
	head := newNode(numClasses - 1)
	head.topLevel = maxLevel - 1
	head.InitKey(math.MinInt64, 0)
	head.SetITime(1)
	head.fullyLink.Store(sentinelPtr())
	for i := 0; i < maxLevel; i++ {
		head.nextAt(i).Store(fromNode(tail))
	}
	l := &List{head: head, tail: tail, prov: p}
	l.pools = make([]freeList, p.MaxThreads())
	l.rngs = make([]rngState, p.MaxThreads())
	for i := range l.rngs {
		l.rngs[i].s = uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	}
	p.Domain().SetFreeFunc(func(tid int, h *epoch.Node) { l.free(tid, ownerOf(h)) })
	return l
}

// NewSnap creates a skip list whose range queries are served by the
// Petrank-Timnat Snap-collector (the paper's "Snap-collector" baseline).
// Use with a ModeUnsafe provider.
func NewSnap(p *rqprov.Provider) *List {
	l := New(p)
	l.snap = snapc.NewRegistry(p.MaxThreads())
	return l
}

func (l *List) reportIns(t *rqprov.Thread, h *epoch.Node) {
	if l.snap == nil {
		return
	}
	if c := l.snap.Active(); c != nil {
		c.Report(t.ID(), h, h.Key(), h.Value(), snapc.ReportInsert)
	}
}

func (l *List) reportDel(t *rqprov.Thread, h *epoch.Node) {
	if l.snap == nil {
		return
	}
	if c := l.snap.Active(); c != nil {
		c.Report(t.ID(), h, h.Key(), h.Value(), snapc.ReportDelete)
	}
}

// randomLevel draws a geometric(1/2) tower height in [0, maxLevel).
func (l *List) randomLevel(tid int) int {
	st := &l.rngs[tid]
	x := st.s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	st.s = x
	lvl := 0
	for x&1 == 1 && lvl < maxLevel-1 {
		lvl++
		x >>= 1
	}
	return lvl
}

// free returns a reclaimed node to thread tid's pool for the node's class.
func (l *List) free(tid int, n *node) {
	pool := &l.pools[tid].nodes[n.class]
	if len(*pool) < poolCap {
		*pool = append(*pool, n)
	}
}

// alloc returns a node of topLevel's height class, recycled from the
// thread's pool for that class when it has one.
func (l *List) alloc(t *rqprov.Thread, key, value int64, topLevel int) *node {
	class := classOf(topLevel)
	pool := &l.pools[t.ID()].nodes[class]
	var n *node
	if ln := len(*pool); ln > 0 {
		n = (*pool)[ln-1]
		*pool = (*pool)[:ln-1]
		t.PoolHit()
	} else {
		n = newNode(class)
		t.PoolMiss()
	}
	n.InitKey(key, value)
	n.marked.Store(nil)
	n.fullyLink.Store(nil)
	n.topLevel = int32(topLevel)
	return n
}

// find fills preds/succs with the nodes bracketing key at every level and
// returns the highest level at which key was found, or -1.
func (l *List) find(key int64, preds, succs *[maxLevel]*node) int {
	found := -1
	pred := l.head
	for lv := maxLevel - 1; lv >= 0; lv-- {
		curr := ptr(pred.nextAt(lv).Load())
		for curr.Key() < key {
			pred = curr
			curr = ptr(curr.nextAt(lv).Load())
		}
		if found == -1 && curr.Key() == key {
			found = lv
		}
		preds[lv] = pred
		succs[lv] = curr
	}
	return found
}

func oneNode(h *epoch.Node) []*epoch.Node { return []*epoch.Node{h} }

// Insert adds key with the given value; false if key is present.
func (l *List) Insert(t *rqprov.Thread, key, value int64) bool {
	t.StartOp()
	defer t.EndOp()
	var preds, succs [maxLevel]*node
	topLevel := l.randomLevel(t.ID())
	for {
		if fl := l.find(key, &preds, &succs); fl != -1 {
			f := succs[fl]
			if !f.isMarked() {
				// Wait until the competing insertion linearizes, then
				// report "already present".
				for i := 0; !f.isFullyLinked(); i++ {
					if i > 8 {
						runtime.Gosched()
					}
				}
				l.reportIns(t, hdr(f)) // observed present
				return false
			}
			// Marked: the victim is on its way out; retry.
			continue
		}
		// Lock preds[0..topLevel] in ascending level order, validating.
		valid := true
		highestLocked := -1
		var prevPred *node
		for lv := 0; valid && lv <= topLevel; lv++ {
			pred, succ := preds[lv], succs[lv]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = lv
				prevPred = pred
			}
			valid = !pred.isMarked() && !succ.isMarked() &&
				ptr(pred.nextAt(lv).Load()) == succ
		}
		if !valid {
			unlockPreds(&preds, highestLocked)
			continue
		}
		n := l.alloc(t, key, value, topLevel)
		for lv := 0; lv <= topLevel; lv++ {
			n.nextAt(lv).Store(fromNode(succs[lv]))
		}
		for lv := 0; lv <= topLevel; lv++ {
			if !preds[lv].nextAt(lv).CAS(fromNode(succs[lv]), fromNode(n)) {
				panic("skiplist: locked link CAS failed")
			}
		}
		// The node is physically reachable at every level but its insertion
		// has not linearized; traversals that find it wait in awaitITime.
		fault.Inject("skiplist.insert.linked")
		// Linearization: fullyLinked (records itime).
		if !t.UpdateCAS(&n.fullyLink, nil, sentinelPtr(),
			oneNode(hdr(n)), nil, false) {
			panic("skiplist: locked fullyLinked CAS failed")
		}
		l.reportIns(t, hdr(n))
		unlockPreds(&preds, highestLocked)
		return true
	}
}

func unlockPreds(preds *[maxLevel]*node, highestLocked int) {
	var prev *node
	for lv := 0; lv <= highestLocked; lv++ {
		if preds[lv] != prev {
			preds[lv].mu.Unlock()
			prev = preds[lv]
		}
	}
}

// Delete removes key; false if key is absent.
func (l *List) Delete(t *rqprov.Thread, key int64) bool {
	t.StartOp()
	defer t.EndOp()
	var preds, succs [maxLevel]*node
	var victim *node
	isMarkedByUs := false
	topLevel := -1
	for {
		fl := l.find(key, &preds, &succs)
		if fl != -1 {
			victim = succs[fl]
		}
		if !isMarkedByUs {
			if fl == -1 || !victim.isFullyLinked() ||
				int(victim.topLevel) != fl || victim.isMarked() {
				return false
			}
			topLevel = int(victim.topLevel)
			victim.mu.Lock()
			if victim.isMarked() {
				victim.mu.Unlock()
				return false
			}
			// Linearization: logical deletion (records dtime).
			if !t.UpdateCAS(&victim.marked, nil, sentinelPtr(),
				nil, oneNode(hdr(victim)), false) {
				panic("skiplist: locked mark CAS failed")
			}
			l.reportDel(t, hdr(victim))
			isMarkedByUs = true
			// Logically deleted (dtime published) but still physically
			// linked at every level.
			fault.Inject("skiplist.delete.marked")
		}
		// Lock predecessors and validate, then unlink every level.
		valid := true
		highestLocked := -1
		var prevPred *node
		for lv := 0; valid && lv <= topLevel; lv++ {
			pred := preds[lv]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = lv
				prevPred = pred
			}
			valid = !pred.isMarked() && ptr(pred.nextAt(lv).Load()) == victim
		}
		if !valid {
			unlockPreds(&preds, highestLocked)
			continue
		}
		t.PhysicalDelete(oneNode(hdr(victim)), func() bool {
			for lv := topLevel; lv >= 0; lv-- {
				if !preds[lv].nextAt(lv).CAS(fromNode(victim), victim.nextAt(lv).Load()) {
					panic("skiplist: locked unlink CAS failed")
				}
			}
			// Unlinked but not yet retired: only the physdel announcement
			// makes the victim findable by a concurrent range query.
			fault.Inject("skiplist.delete.unlinked")
			return true
		})
		victim.mu.Unlock()
		unlockPreds(&preds, highestLocked)
		return true
	}
}

// Contains reports whether key is present (wait-free).
func (l *List) Contains(t *rqprov.Thread, key int64) (int64, bool) {
	t.StartOp()
	defer t.EndOp()
	pred := l.head
	var curr *node
	for lv := maxLevel - 1; lv >= 0; lv-- {
		curr = ptr(pred.nextAt(lv).Load())
		for curr.Key() < key {
			pred = curr
			curr = ptr(curr.nextAt(lv).Load())
		}
	}
	if curr.Key() != key || !curr.isFullyLinked() {
		return 0, false
	}
	if curr.isMarked() {
		l.reportDel(t, hdr(curr)) // observed marked
		return 0, false
	}
	l.reportIns(t, hdr(curr)) // observed present
	return curr.Value(), true
}

// RangeQuery returns all pairs with keys in [low, high], linearized at the
// query's timestamp increment. The traversal descends the index levels to
// the bottom-level predecessor of low and then walks the bottom level (the
// COLLECT property follows from the bottom list's structure, as for the
// linked lists).
func (l *List) RangeQuery(t *rqprov.Thread, low, high int64) []epoch.KV {
	t.StartOp()
	defer t.EndOp()
	if l.snap != nil {
		return l.snapRangeQuery(t, low, high)
	}
	t.TraversalStart(low, high)
	pred := l.head
	for lv := maxLevel - 1; lv >= 0; lv-- {
		curr := ptr(pred.nextAt(lv).Load())
		for curr.Key() < low {
			pred = curr
			curr = ptr(curr.nextAt(lv).Load())
		}
	}
	// Timestamp taken, index descent done, bottom-level walk not started:
	// updates slipping in here must be recovered by the end-of-query
	// announcement and limbo sweeps.
	fault.Inject("skiplist.rq.bottomwalk")
	curr := ptr(pred.next0.Load())
	for curr.Key() <= high {
		t.VisitMaybeMarked(hdr(curr), curr.isMarked())
		curr = ptr(curr.next0.Load())
	}
	return t.TraversalEnd()
}

// snapRangeQuery takes a full snapshot with the Snap-collector over the
// bottom level and filters it to [low, high]. Nodes that are not yet fully
// linked are skipped: their insertions have not linearized, and the
// inserting thread reports them if they linearize while the collector is
// active.
func (l *List) snapRangeQuery(t *rqprov.Thread, low, high int64) []epoch.KV {
	c := l.snap.Acquire()
	curr := ptr(l.head.next0.Load())
	for curr != l.tail && c.IsActive() {
		switch {
		case curr.isMarked():
			c.Report(t.ID(), hdr(curr), curr.Key(), curr.Value(), snapc.ReportDelete)
		case curr.isFullyLinked():
			c.AddNode(hdr(curr), curr.Key(), curr.Value())
		}
		curr = ptr(curr.next0.Load())
	}
	c.BlockFurtherNodes()
	c.Deactivate()
	c.BlockFurtherReports()
	return snapc.FilterRange(c.Reconstruct(), low, high)
}

// Size counts live nodes (quiescent use only).
func (l *List) Size() int {
	n := 0
	for curr := ptr(l.head.next0.Load()); curr != l.tail; curr = ptr(curr.next0.Load()) {
		if !curr.isMarked() && curr.isFullyLinked() {
			n++
		}
	}
	return n
}
