// Package citrus implements the Citrus tree of Arbel and Attiya (PODC '14):
// an internal binary search tree synchronized with fine-grained per-node
// locks for updates and RCU for searches ("Citrus" in the paper's Figure 4).
// There is no logical deletion: nodes leave the key set at the same CAS
// that physically unlinks (or replaces) them.
//
// RQ integration: insertion linearizes at the child-pointer write that
// publishes the new node; deletion of a node with at most one child
// linearizes at the child-pointer CAS that splices it out; deletion of a
// node with two children linearizes at the CAS that replaces the victim
// with a fresh copy of its successor (the copy's key transiently duplicates
// the successor's key — the provider deduplicates, per §4 of the PPoPP '18
// paper). Between that CAS and the removal of the original successor the
// algorithm performs an RCU Synchronize, so searches that had already
// descended past the replacement still find the original; range queries
// participate as RCU readers.
//
// Deleted nodes are always retired by the deleting thread inside
// UpdateCAS, so limbo lists are dtime-sorted (LimboSorted=true).
package citrus

import (
	"math"
	"sync"
	"unsafe"

	"ebrrq/internal/dcss"
	"ebrrq/internal/epoch"
	"ebrrq/internal/rcu"
	"ebrrq/internal/rqprov"
)

type node struct {
	epoch.Node // must be first
	mu         sync.Mutex
	retired    bool // guarded by mu: set when the node leaves the tree
	child      [2]dcss.Slot
}

func ptr(v unsafe.Pointer) *node      { return (*node)(dcss.Ptr(v)) }
func fromNode(n *node) unsafe.Pointer { return unsafe.Pointer(n) }
func hdr(n *node) *epoch.Node         { return &n.Node }
func ownerOf(h *epoch.Node) *node     { return (*node)(unsafe.Pointer(h)) }

// Tree is a concurrent internal BST with linearizable range queries.
type Tree struct {
	root  *node // sentinel with key MaxInt64; user keys go to child[0]
	prov  *rqprov.Provider
	rcu   *rcu.Domain
	pools []freeList
}

type freeList struct {
	nodes []*node
	_     [40]byte
}

// New creates an empty Citrus tree attached to the provider.
func New(p *rqprov.Provider) *Tree {
	root := &node{}
	root.InitKey(math.MaxInt64, 0)
	root.SetITime(1)
	t := &Tree{root: root, prov: p, rcu: rcu.NewDomain(p.MaxThreads())}
	t.pools = make([]freeList, p.MaxThreads())
	p.Domain().SetFreeFunc(func(tid int, h *epoch.Node) {
		fl := &t.pools[tid]
		if len(fl.nodes) < 4096 {
			fl.nodes = append(fl.nodes, ownerOf(h))
		}
	})
	return t
}

func (t *Tree) alloc(th *rqprov.Thread, key, value int64) *node {
	fl := &t.pools[th.ID()]
	var n *node
	if ln := len(fl.nodes); ln > 0 {
		n = fl.nodes[ln-1]
		fl.nodes = fl.nodes[:ln-1]
		th.PoolHit()
	} else {
		n = &node{}
		th.PoolMiss()
	}
	n.InitKey(key, value)
	n.retired = false
	n.child[0].Store(nil)
	n.child[1].Store(nil)
	return n
}

func oneNode(h *epoch.Node) []*epoch.Node { return []*epoch.Node{h} }

// dirFor returns which child of n covers key.
func dirFor(n *node, key int64) int {
	if key < n.Key() {
		return 0
	}
	return 1
}

// locate descends from the root and returns (prev, dir, curr) where curr is
// the node holding key (or nil) and prev.child[dir] was observed to
// reference curr. Must run inside an RCU read-side critical section.
func (t *Tree) locate(key int64) (*node, int, *node) {
	prev := t.root
	dir := 0
	curr := ptr(prev.child[0].Load())
	for curr != nil && curr.Key() != key {
		prev = curr
		dir = dirFor(curr, key)
		curr = ptr(curr.child[dir].Load())
	}
	return prev, dir, curr
}

// Insert adds key with the given value; false if key is present.
func (t *Tree) Insert(th *rqprov.Thread, key, value int64) bool {
	th.StartOp()
	defer th.EndOp()
	tid := th.ID()
	for {
		t.rcu.ReadLock(tid)
		prev, dir, curr := t.locate(key)
		t.rcu.ReadUnlock(tid)
		if curr != nil {
			return false
		}
		prev.mu.Lock()
		if prev.retired || prev.child[dir].Load() != nil {
			prev.mu.Unlock()
			continue
		}
		n := t.alloc(th, key, value)
		// Linearization: publish the node (cannot fail under the lock).
		if !th.UpdateCAS(&prev.child[dir], nil, fromNode(n),
			oneNode(hdr(n)), nil, false) {
			panic("citrus: locked insert CAS failed")
		}
		prev.mu.Unlock()
		return true
	}
}

// Delete removes key; false if key is absent.
func (t *Tree) Delete(th *rqprov.Thread, key int64) bool {
	th.StartOp()
	defer th.EndOp()
	tid := th.ID()
	for {
		t.rcu.ReadLock(tid)
		prev, dir, curr := t.locate(key)
		t.rcu.ReadUnlock(tid)
		if curr == nil {
			return false
		}
		prev.mu.Lock()
		curr.mu.Lock()
		if prev.retired || curr.retired || ptr(prev.child[dir].Load()) != curr {
			curr.mu.Unlock()
			prev.mu.Unlock()
			continue
		}
		l := ptr(curr.child[0].Load())
		r := ptr(curr.child[1].Load())
		if l == nil || r == nil {
			// At most one child: splice curr out (linearization).
			repl := l
			if repl == nil {
				repl = r
			}
			curr.retired = true
			if !th.UpdateCAS(&prev.child[dir], fromNode(curr), fromNode(repl),
				nil, oneNode(hdr(curr)), true) {
				panic("citrus: locked splice CAS failed")
			}
			curr.mu.Unlock()
			prev.mu.Unlock()
			return true
		}
		if t.deleteTwoChildren(th, prev, dir, curr, l, r) {
			return true
		}
		// Validation deeper in the tree failed; retry from the top.
	}
}

// deleteTwoChildren removes curr (which has children l and r) by replacing
// it with a copy of its successor. It returns false (with all locks
// released) if successor validation failed and the operation must retry.
func (t *Tree) deleteTwoChildren(th *rqprov.Thread, prev *node, dir int, curr, l, r *node) bool {
	// Find the successor (leftmost node of the right subtree).
	succPrev, sdir, succ := curr, 1, r
	for {
		next := ptr(succ.child[0].Load())
		if next == nil {
			break
		}
		succPrev = succ
		sdir = 0
		succ = next
	}
	if succPrev != curr {
		succPrev.mu.Lock()
	}
	succ.mu.Lock()
	valid := !succPrev.retired && !succ.retired &&
		ptr(succPrev.child[sdir].Load()) == succ &&
		succ.child[0].Load() == nil
	if !valid {
		succ.mu.Unlock()
		if succPrev != curr {
			succPrev.mu.Unlock()
		}
		curr.mu.Unlock()
		prev.mu.Unlock()
		return false
	}

	n := t.alloc(th, succ.Key(), succ.Value())
	n.child[0].Store(fromNode(l))
	curr.retired = true

	if succPrev == curr {
		// The successor is curr's right child: a single CAS replaces
		// curr by the copy (whose right subtree is succ's) and removes
		// both curr and succ.
		n.child[1].Store(succ.child[1].Load())
		succ.retired = true
		if !th.UpdateCAS(&prev.child[dir], fromNode(curr), fromNode(n),
			oneNode(hdr(n)), []*epoch.Node{hdr(curr), hdr(succ)}, true) {
			panic("citrus: locked replace CAS failed")
		}
		succ.mu.Unlock()
		curr.mu.Unlock()
		prev.mu.Unlock()
		return true
	}

	// General case: install the copy (linearization #1: removes curr's
	// key; the copy duplicates succ's key), wait for concurrent readers
	// that may still be heading for the original successor, then unlink
	// the original (linearization #2: no net key-set change).
	n.child[1].Store(fromNode(r))
	if !th.UpdateCAS(&prev.child[dir], fromNode(curr), fromNode(n),
		oneNode(hdr(n)), oneNode(hdr(curr)), true) {
		panic("citrus: locked replace CAS failed")
	}
	t.rcu.Synchronize()
	succ.retired = true
	if !th.UpdateCAS(&succPrev.child[sdir], fromNode(succ), succ.child[1].Load(),
		nil, oneNode(hdr(succ)), true) {
		panic("citrus: locked successor unlink CAS failed")
	}
	succ.mu.Unlock()
	succPrev.mu.Unlock()
	curr.mu.Unlock()
	prev.mu.Unlock()
	return true
}

// Contains reports whether key is present.
func (t *Tree) Contains(th *rqprov.Thread, key int64) (int64, bool) {
	th.StartOp()
	defer th.EndOp()
	tid := th.ID()
	t.rcu.ReadLock(tid)
	_, _, curr := t.locate(key)
	t.rcu.ReadUnlock(tid)
	if curr == nil {
		return 0, false
	}
	return curr.Value(), true
}

// RangeQuery returns all pairs with keys in [low, high], linearized at the
// query's timestamp increment. The DFS traversal of Figure 1 satisfies
// COLLECT because Citrus searches are exactly sequential BST searches (§3.1
// of the PPoPP '18 paper); the query runs as an RCU reader so two-child
// deletions wait for it before removing original successor nodes.
func (t *Tree) RangeQuery(th *rqprov.Thread, low, high int64) []epoch.KV {
	th.StartOp()
	defer th.EndOp()
	tid := th.ID()
	t.rcu.ReadLock(tid)
	th.TraversalStart(low, high)
	stack := make([]*node, 0, 64)
	if c := ptr(t.root.child[0].Load()); c != nil {
		stack = append(stack, c)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := n.Key()
		if low <= k && k <= high {
			th.Visit(hdr(n))
		}
		if low < k {
			if c := ptr(n.child[0].Load()); c != nil {
				stack = append(stack, c)
			}
		}
		// >=, not >: while a two-child delete is between its two CASes the
		// original successor sits in the right subtree of its same-key copy,
		// and a query that excludes the copy (itime >= ts) must still reach it.
		if high >= k {
			if c := ptr(n.child[1].Load()); c != nil {
				stack = append(stack, c)
			}
		}
	}
	res := th.TraversalEnd()
	t.rcu.ReadUnlock(tid)
	return res
}

// Size counts the tree's nodes (quiescent use only).
func (t *Tree) Size() int {
	var count func(n *node) int
	count = func(n *node) int {
		if n == nil {
			return 0
		}
		return 1 + count(ptr(n.child[0].Load())) + count(ptr(n.child[1].Load()))
	}
	return count(ptr(t.root.child[0].Load()))
}
