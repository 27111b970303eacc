// Bundled optimistic skip list (Herlihy-Lev-Luchangco-Shavit shape, bundled
// bottom level): per-node locks, wait-free searches, logical deletion via a
// marked flag, a fullyLinked flag gating index use — and a bundle on every
// bottom-level link. Only the bottom level is versioned: the index levels
// are a probabilistic accelerator, so a range query descends them over the
// raw pointers to a bottom-level predecessor of the range that is provably
// in its ts-snapshot, then walks the bottom level through bundles exactly
// like the bundled lazy list.
//
// Descent visibility: the index may step onto a node only when it is
// fullyLinked, unmarked and has 0 < itime < ts. Unmarked observed after ts
// was installed means any future deletion stamps at or above ts (deleters
// mark before reading the clock, and ts came from an advance), and
// itime < ts means the insertion is visible — so the node is in the
// snapshot and its bundle chain covers the range suffix. A node failing
// the check just stops the level early (the descent drops a level without
// advancing); correctness never depends on index quality.
package bundle

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"ebrrq/internal/epoch"
)

// skipMaxLevel is the number of tower levels (0..skipMaxLevel-1). A node
// reaches level i with probability 2^-i, so 20 levels index ~2^20 keys.
const skipMaxLevel = 20

// snode is the header of every skip-list node and ends in tower slot 0. The
// remaining slots follow it in the same allocation (see the class wrappers
// below), so nothing may be declared after next0.
type snode struct {
	epoch.Node // must be first
	mu         sync.Mutex
	marked     atomic.Bool
	fullyLink  atomic.Bool
	class      uint8 // height class; stamped by newSnode, never rewritten
	topLevel   int32
	bun        bundle                // versions of next0
	next0      atomic.Pointer[snode] // tower slot 0
}

// Height classes: a node is allocated as the smallest wrapper whose tower
// holds its topLevel. Geometric(1/2) heights put 75 % / 19 % / 6 % / 0.4 % of
// nodes in the four classes, which land in the 128 / 144 / 176 / 288 B
// allocator size classes.
const snumClasses = 4

type (
	snode2 struct {
		snode
		up [1]atomic.Pointer[snode]
	}
	snode4 struct {
		snode
		up [3]atomic.Pointer[snode]
	}
	snode8 struct {
		snode
		up [7]atomic.Pointer[snode]
	}
	snode20 struct {
		snode
		up [skipMaxLevel - 1]atomic.Pointer[snode]
	}
)

// sclassCap is the number of tower slots a node of each class owns: slot 0
// in the header plus the wrapper's.
var sclassCap = [snumClasses]int{
	1 + len(snode2{}.up), 1 + len(snode4{}.up), 1 + len(snode8{}.up), 1 + len(snode20{}.up),
}

// sclassOf returns the smallest class whose tower holds levels 0..topLevel.
func sclassOf(topLevel int) uint8 {
	c := uint8(0)
	for topLevel >= sclassCap[c] {
		c++
	}
	return c
}

// newSnode allocates a zeroed node of the given class.
func newSnode(class uint8) *snode {
	var n *snode
	switch class {
	case 0:
		n = &new(snode2).snode
	case 1:
		n = &new(snode4).snode
	case 2:
		n = &new(snode8).snode
	default:
		n = &new(snode20).snode
	}
	n.class = class
	return n
}

// nextAt returns tower slot lv, the raw link that follows n at level lv. lv
// must be below sclassCap[n.class]; callers guarantee it by only indexing a
// node at a level they reached it on (at most its topLevel). That stays true
// for a stale reference to a recycled node, because a node keeps its class —
// and so its allocation — for life: the pools are per class. The arithmetic
// is spelled through uintptr rather than unsafe.Add because that is the form
// checkptr instruments: under -race an index outside n's allocation throws.
func (n *snode) nextAt(lv int) *atomic.Pointer[snode] {
	return (*atomic.Pointer[snode])(unsafe.Pointer(uintptr(unsafe.Pointer(&n.next0)) + uintptr(lv)*unsafe.Sizeof(n.next0)))
}

func shdr(n *snode) *epoch.Node    { return &n.Node }
func sowner(h *epoch.Node) *snode  { return (*snode)(unsafe.Pointer(h)) }
func sptr(p unsafe.Pointer) *snode { return (*snode)(p) }
func sraw(n *snode) unsafe.Pointer { return unsafe.Pointer(n) }

// SkipList is a concurrent sorted set whose range queries are served by
// bottom-level bundles.
type SkipList struct {
	head  *snode
	tail  *snode
	prov  *Provider
	pools []sfreeList
	rngs  []srngState
}

// sfreeList is one thread's recycling pools, one per height class, padded to
// two cache lines.
type sfreeList struct {
	nodes [snumClasses][]*snode
	_     [32]byte
}

type srngState struct {
	s uint64
	_ [56]byte
}

// NewSkipList creates an empty bundled skip list attached to the provider.
func NewSkipList(p *Provider) *SkipList {
	tail := newSnode(snumClasses - 1)
	tail.topLevel = skipMaxLevel - 1
	tail.InitKey(math.MaxInt64, 0)
	tail.SetITime(1)
	tail.fullyLink.Store(true)
	head := newSnode(snumClasses - 1)
	head.topLevel = skipMaxLevel - 1
	head.InitKey(math.MinInt64, 0)
	head.SetITime(1)
	head.fullyLink.Store(true)
	for i := 0; i < skipMaxLevel; i++ {
		head.nextAt(i).Store(tail)
	}
	head.bun.seed(1, sraw(tail))
	l := &SkipList{head: head, tail: tail, prov: p}
	l.pools = make([]sfreeList, p.MaxThreads())
	l.rngs = make([]srngState, p.MaxThreads())
	for i := range l.rngs {
		l.rngs[i].s = uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	}
	p.Domain().SetFreeFunc(func(tid int, h *epoch.Node) { l.free(tid, sowner(h)) })
	p.SetGCFunc(l.gcSweep)
	p.entriesLive.Add(1) // head's seed entry
	return l
}

// randomLevel draws a geometric(1/2) tower height in [0, skipMaxLevel).
func (l *SkipList) randomLevel(tid int) int {
	st := &l.rngs[tid]
	x := st.s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	st.s = x
	lvl := 0
	for x&1 == 1 && lvl < skipMaxLevel-1 {
		lvl++
		x >>= 1
	}
	return lvl
}

// free returns a reclaimed node to thread tid's pool for the node's class.
func (l *SkipList) free(tid int, n *snode) {
	pool := &l.pools[tid].nodes[n.class]
	if len(*pool) < poolCap {
		*pool = append(*pool, n)
	}
}

// alloc returns a node of topLevel's height class, recycled from the
// thread's pool for that class when it has one.
func (l *SkipList) alloc(t *Thread, key, value int64, topLevel int) *snode {
	class := sclassOf(topLevel)
	pool := &l.pools[t.ID()].nodes[class]
	var n *snode
	if ln := len(*pool); ln > 0 {
		n = (*pool)[ln-1]
		*pool = (*pool)[:ln-1]
		t.PoolHit()
	} else {
		n = newSnode(class)
		t.PoolMiss()
	}
	n.InitKey(key, value) // resets itime/dtime/limbo link
	n.marked.Store(false)
	n.fullyLink.Store(false)
	n.bun.reset()
	n.topLevel = int32(topLevel)
	return n
}

// find fills preds/succs with the nodes bracketing key at every level and
// returns the highest level at which key was found, or -1.
func (l *SkipList) find(key int64, preds, succs *[skipMaxLevel]*snode) int {
	found := -1
	pred := l.head
	for lv := skipMaxLevel - 1; lv >= 0; lv-- {
		curr := pred.nextAt(lv).Load()
		for curr.Key() < key {
			pred = curr
			curr = curr.nextAt(lv).Load()
		}
		if found == -1 && curr.Key() == key {
			found = lv
		}
		preds[lv] = pred
		succs[lv] = curr
	}
	return found
}

// Insert adds key with the given value; false if key is present.
func (l *SkipList) Insert(t *Thread, key, value int64) bool {
	t.StartOp()
	defer t.EndOp()
	var preds, succs [skipMaxLevel]*snode
	topLevel := l.randomLevel(t.ID())
	for {
		if fl := l.find(key, &preds, &succs); fl != -1 {
			f := succs[fl]
			if !f.marked.Load() {
				// Wait until the competing insertion linearizes, then
				// report "already present".
				for i := 0; !f.fullyLink.Load(); i++ {
					if i > 8 {
						runtime.Gosched()
					}
				}
				return false
			}
			// Marked: the victim is on its way out; retry.
			continue
		}
		// Lock preds[0..topLevel] in ascending level order, validating.
		valid := true
		highestLocked := -1
		var prevPred *snode
		for lv := 0; valid && lv <= topLevel; lv++ {
			pred, succ := preds[lv], succs[lv]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = lv
				prevPred = pred
			}
			valid = !pred.marked.Load() && !succ.marked.Load() &&
				pred.nextAt(lv).Load() == succ
		}
		if !valid {
			sUnlockPreds(&preds, highestLocked)
			continue
		}
		n := l.alloc(t, key, value, topLevel)
		for lv := 0; lv <= topLevel; lv++ {
			n.nextAt(lv).Store(succs[lv])
		}
		// Seed the new node's bundle pending, publish the bottom link,
		// version it, stamp — the range-query linearization (see list.go).
		// n stays locked until its seed entry is stamped, so no insert after
		// n can stamp an older timestamp above the seed (see list.go).
		en := n.bun.prepend(sraw(succs[0]))
		n.mu.Lock()
		preds[0].next0.Store(n)
		ep := preds[0].bun.prepend(sraw(n))
		v := t.stamp2(en, ep)
		n.mu.Unlock()
		n.SetITime(v)
		for lv := 1; lv <= topLevel; lv++ {
			preds[lv].nextAt(lv).Store(n)
		}
		n.fullyLink.Store(true) // index may now use the node
		t.record(v, shdr(n), nil)
		t.gcInline(&preds[0].bun)
		sUnlockPreds(&preds, highestLocked)
		return true
	}
}

func sUnlockPreds(preds *[skipMaxLevel]*snode, highestLocked int) {
	var prev *snode
	for lv := 0; lv <= highestLocked; lv++ {
		if preds[lv] != prev {
			preds[lv].mu.Unlock()
			prev = preds[lv]
		}
	}
}

// Delete removes key; false if key is absent.
func (l *SkipList) Delete(t *Thread, key int64) bool {
	t.StartOp()
	defer t.EndOp()
	var preds, succs [skipMaxLevel]*snode
	var victim *snode
	isMarkedByUs := false
	topLevel := -1
	for {
		fl := l.find(key, &preds, &succs)
		if fl != -1 {
			victim = succs[fl]
		}
		if !isMarkedByUs {
			if fl == -1 || !victim.fullyLink.Load() ||
				int(victim.topLevel) != fl || victim.marked.Load() {
				return false
			}
			topLevel = int(victim.topLevel)
			victim.mu.Lock()
			if victim.marked.Load() {
				victim.mu.Unlock()
				return false
			}
			// Mark before the clock read below: the point-op
			// linearization, and the fence that keeps index descents off
			// the node once a newer timestamp exists.
			victim.marked.Store(true)
			isMarkedByUs = true
		}
		// Lock predecessors and validate, then unlink every level.
		valid := true
		highestLocked := -1
		var prevPred *snode
		for lv := 0; valid && lv <= topLevel; lv++ {
			pred := preds[lv]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = lv
				prevPred = pred
			}
			valid = !pred.marked.Load() && pred.nextAt(lv).Load() == victim
		}
		if !valid {
			sUnlockPreds(&preds, highestLocked)
			continue
		}
		for lv := topLevel; lv >= 1; lv-- {
			preds[lv].nextAt(lv).Store(victim.nextAt(lv).Load())
		}
		succ := victim.next0.Load()
		preds[0].next0.Store(succ)
		ep := preds[0].bun.prepend(sraw(succ))
		v := t.stamp1(ep) // range-query linearization
		victim.SetDTime(v)
		t.record(v, nil, shdr(victim))
		t.Retire(shdr(victim))
		t.gcInline(&preds[0].bun)
		victim.mu.Unlock()
		sUnlockPreds(&preds, highestLocked)
		return true
	}
}

// Contains reports whether key is present (wait-free, raw links).
func (l *SkipList) Contains(t *Thread, key int64) (int64, bool) {
	t.StartOp()
	defer t.EndOp()
	pred := l.head
	var curr *snode
	for lv := skipMaxLevel - 1; lv >= 0; lv-- {
		curr = pred.nextAt(lv).Load()
		for curr.Key() < key {
			pred = curr
			curr = curr.nextAt(lv).Load()
		}
	}
	if curr.Key() != key || !curr.fullyLink.Load() || curr.marked.Load() {
		return 0, false
	}
	return curr.Value(), true
}

// visibleAt reports whether the index descent may step onto c for a query
// at ts (see the package comment's visibility argument). Order matters:
// fullyLink is published after itime, so a true load here guarantees a
// stamped itime.
func visibleAt(c *snode, ts uint64) bool {
	if !c.fullyLink.Load() || c.marked.Load() {
		return false
	}
	it := c.ITime()
	return it != 0 && it < ts
}

// RangeQuery returns all pairs with keys in [low, high], linearized at the
// query's timestamp. Index descent over raw pointers restricted to
// snapshot-visible nodes, then a bundle walk along the bottom level. The
// result is valid until the thread's next range query.
func (l *SkipList) RangeQuery(t *Thread, low, high int64) []epoch.KV {
	t.StartOp()
	defer t.EndOp()
	ts := t.rqBegin(low)
	pred := l.head
	for lv := skipMaxLevel - 1; lv >= 0; lv-- {
		curr := pred.nextAt(lv).Load()
		for curr.Key() < low && visibleAt(curr, ts) {
			pred = curr
			curr = pred.nextAt(lv).Load()
		}
	}
	res := t.resultBuf()
	curr := sptr(t.deref(&pred.bun, ts))
	for curr != nil && curr.Key() < low {
		curr = sptr(t.deref(&curr.bun, ts))
	}
	for curr != nil && curr.Key() <= high {
		res = append(res, epoch.KV{Key: curr.Key(), Value: curr.Value()})
		curr = sptr(t.deref(&curr.bun, ts))
	}
	return t.rqEnd(res)
}

// Size counts live nodes (quiescent use only).
func (l *SkipList) Size() int {
	n := 0
	for curr := l.head.next0.Load(); curr != l.tail; curr = curr.next0.Load() {
		if !curr.marked.Load() && curr.fullyLink.Load() {
			n++
		}
	}
	return n
}

// gcSweep locks every reachable bottom-level node in turn and prunes its
// bundle below min; registered as the provider's full-GC pass.
func (l *SkipList) gcSweep(min uint64) int {
	n := 0
	for c := l.head; c != nil && c != l.tail; c = c.next0.Load() {
		c.mu.Lock()
		n += c.bun.gcBelow(min)
		c.mu.Unlock()
	}
	return n
}

// MaxBundleLen returns the longest bundle over reachable bottom links
// (tests).
func (l *SkipList) MaxBundleLen() int {
	max := 0
	for c := l.head; c != nil && c != l.tail; c = c.next0.Load() {
		if n := c.bun.len(); n > max {
			max = n
		}
	}
	return max
}
