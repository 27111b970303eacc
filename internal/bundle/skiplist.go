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

// skipMaxLevel bounds tower height; 1/2 branching supports ~2^20 keys well.
const skipMaxLevel = 20

type snode struct {
	epoch.Node // must be first
	mu         sync.Mutex
	marked     atomic.Bool
	fullyLink  atomic.Bool
	topLevel   int
	next       [skipMaxLevel]atomic.Pointer[snode]
	bun        bundle // versions of next[0]
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

type sfreeList struct {
	nodes []*snode
	_     [40]byte
}

type srngState struct {
	s uint64
	_ [56]byte
}

// NewSkipList creates an empty bundled skip list attached to the provider.
func NewSkipList(p *Provider) *SkipList {
	tail := &snode{topLevel: skipMaxLevel - 1}
	tail.InitKey(math.MaxInt64, 0)
	tail.SetITime(1)
	tail.fullyLink.Store(true)
	head := &snode{topLevel: skipMaxLevel - 1}
	head.InitKey(math.MinInt64, 0)
	head.SetITime(1)
	head.fullyLink.Store(true)
	for i := 0; i < skipMaxLevel; i++ {
		head.next[i].Store(tail)
	}
	head.bun.seed(1, sraw(tail))
	l := &SkipList{head: head, tail: tail, prov: p}
	l.pools = make([]sfreeList, p.MaxThreads())
	l.rngs = make([]srngState, p.MaxThreads())
	for i := range l.rngs {
		l.rngs[i].s = uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	}
	p.Domain().SetFreeFunc(func(tid int, h *epoch.Node) {
		fl := &l.pools[tid]
		if len(fl.nodes) < 4096 {
			fl.nodes = append(fl.nodes, sowner(h))
		}
	})
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

func (l *SkipList) alloc(t *Thread, key, value int64) *snode {
	fl := &l.pools[t.ID()]
	var n *snode
	if ln := len(fl.nodes); ln > 0 {
		n = fl.nodes[ln-1]
		fl.nodes = fl.nodes[:ln-1]
		t.PoolHit()
	} else {
		n = &snode{}
		t.PoolMiss()
	}
	n.InitKey(key, value) // resets itime/dtime/limbo link
	n.marked.Store(false)
	n.fullyLink.Store(false)
	n.bun.reset()
	return n
}

func (l *SkipList) dealloc(t *Thread, n *snode) {
	fl := &l.pools[t.ID()]
	if len(fl.nodes) < 4096 {
		fl.nodes = append(fl.nodes, n)
	}
}

// find fills preds/succs with the nodes bracketing key at every level and
// returns the highest level at which key was found, or -1.
func (l *SkipList) find(key int64, preds, succs *[skipMaxLevel]*snode) int {
	found := -1
	pred := l.head
	for lv := skipMaxLevel - 1; lv >= 0; lv-- {
		curr := pred.next[lv].Load()
		for curr.Key() < key {
			pred = curr
			curr = curr.next[lv].Load()
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
				pred.next[lv].Load() == succ
		}
		if !valid {
			sUnlockPreds(&preds, highestLocked)
			continue
		}
		n := l.alloc(t, key, value)
		n.topLevel = topLevel
		for lv := 0; lv <= topLevel; lv++ {
			n.next[lv].Store(succs[lv])
		}
		// Seed the new node's bundle pending, publish the bottom link,
		// version it, stamp — the range-query linearization (see list.go).
		// n stays locked until its seed entry is stamped, so no insert after
		// n can stamp an older timestamp above the seed (see list.go).
		en := n.bun.prepend(sraw(succs[0]))
		n.mu.Lock()
		preds[0].next[0].Store(n)
		ep := preds[0].bun.prepend(sraw(n))
		v := t.stamp2(en, ep)
		n.mu.Unlock()
		n.SetITime(v)
		for lv := 1; lv <= topLevel; lv++ {
			preds[lv].next[lv].Store(n)
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
				victim.topLevel != fl || victim.marked.Load() {
				return false
			}
			topLevel = victim.topLevel
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
			valid = !pred.marked.Load() && pred.next[lv].Load() == victim
		}
		if !valid {
			sUnlockPreds(&preds, highestLocked)
			continue
		}
		for lv := topLevel; lv >= 1; lv-- {
			preds[lv].next[lv].Store(victim.next[lv].Load())
		}
		succ := victim.next[0].Load()
		preds[0].next[0].Store(succ)
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
		curr = pred.next[lv].Load()
		for curr.Key() < key {
			pred = curr
			curr = curr.next[lv].Load()
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
		curr := pred.next[lv].Load()
		for curr.Key() < low && visibleAt(curr, ts) {
			pred = curr
			curr = pred.next[lv].Load()
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
	for curr := l.head.next[0].Load(); curr != l.tail; curr = curr.next[0].Load() {
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
	for c := l.head; c != nil && c != l.tail; c = c.next[0].Load() {
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
	for c := l.head; c != nil && c != l.tail; c = c.next[0].Load() {
		if n := c.bun.len(); n > max {
			max = n
		}
	}
	return max
}
