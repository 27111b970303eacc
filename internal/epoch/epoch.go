// Package epoch implements DEBRA-style epoch-based memory reclamation (EBR)
// with the extension required by the PPoPP'18 range-query technique of
// Arbel-Raviv and Brown: per-thread limbo lists that remain traversable by
// concurrent operations, plus the GetLimboLists operation (exposed here as
// ForEachLimboList) that returns every limbo list which may contain nodes
// retired during the calling thread's current operation.
//
// The EBR ADT of the paper provides StartOp, EndOp, Retire and GetLimboLists.
// Retire(node) places node at the head of the retiring thread's current limbo
// list, so each list is sorted in descending order of deletion time — the
// property the provider's early-exit optimization relies on.
//
// Reclamation in Go: the garbage collector makes use-after-free impossible,
// but the paper's algorithm depends on nodes not being *reused* while a
// concurrent operation may still hold a reference (otherwise ABA on data
// structure pointers and bogus itime/dtime values would corrupt range
// queries). This package therefore performs real reclamation: when a limbo
// bag becomes reclaimable (two epoch advances after it was sealed), its nodes
// are handed to a free function that returns them to per-thread pools for
// reuse. Premature hand-off would be an observable bug, so the epoch
// discipline is exercised exactly as in a manually-managed language.
package epoch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"ebrrq/internal/fault"
	"ebrrq/internal/obs"
	"ebrrq/internal/trace"
)

// KV is a key-value pair stored in a multi-key node.
type KV struct {
	Key   int64
	Value int64
}

// Node is the header embedded (as the first field) in every data-structure
// node managed by EBR and the range-query provider. It carries the insertion
// and deletion timestamps of §4 of the paper, a mirror of the node's key(s)
// so that limbo-list and announcement sweeps never need to know the concrete
// node layout, and the limbo-list link.
//
// Timestamp encoding: 0 represents ⊥ (not yet set); the provider's global
// timestamp starts at 1.
type Node struct {
	itime     atomic.Uint64
	dtime     atomic.Uint64
	key       int64
	value     int64
	multi     []KV // key-value pairs of a multi-key node (may be empty)
	isMulti   bool // true for multi-key nodes (even when multi is empty)
	routing   bool // true for internal router nodes that hold no set keys
	limboNext atomic.Pointer[Node]

	// gen counts how many times this node has been recycled. Debug
	// assertions use it to detect reuse of a node that an operation still
	// holds; it is also handy when diagnosing ABA bugs.
	gen atomic.Uint64
}

// InitKey prepares a (new or recycled) single-key node for insertion.
func (n *Node) InitKey(key, value int64) {
	n.key = key
	n.value = value
	n.multi = nil
	n.isMulti = false
	n.routing = false
	n.itime.Store(0)
	n.dtime.Store(0)
	n.limboNext.Store(nil)
}

// InitRouting prepares a router node: it participates in traversals (key is
// its routing key) and in EBR reclamation, but holds no set keys — range
// queries and the validation recorder ignore it entirely.
func (n *Node) InitRouting(key int64) {
	n.key = key
	n.value = 0
	n.multi = nil
	n.isMulti = false
	n.routing = true
	n.itime.Store(0)
	n.dtime.Store(0)
	n.limboNext.Store(nil)
}

// Routing reports whether this is a router node (no set keys).
func (n *Node) Routing() bool { return n.routing }

// InitMulti prepares a (new or recycled) multi-key node for insertion. The
// slice must not be mutated after the node becomes reachable.
func (n *Node) InitMulti(kvs []KV) {
	n.key = 0
	n.value = 0
	n.multi = kvs
	n.isMulti = true
	n.routing = false
	n.itime.Store(0)
	n.dtime.Store(0)
	n.limboNext.Store(nil)
}

// Key returns the node's single key. For multi-key nodes use Each.
func (n *Node) Key() int64 { return n.key }

// Value returns the node's single value.
func (n *Node) Value() int64 { return n.value }

// Multi returns a multi-key node's key-value pairs (nil or empty for an
// empty leaf; meaningless for single-key nodes).
func (n *Node) Multi() []KV { return n.multi }

// IsMulti reports whether the node is a multi-key node.
func (n *Node) IsMulti() bool { return n.isMulti }

// Each invokes f for every key-value pair held by the node.
func (n *Node) Each(f func(k, v int64)) {
	if n.isMulti {
		for _, kv := range n.multi {
			f(kv.Key, kv.Value)
		}
		return
	}
	f(n.key, n.value)
}

// ContainsInRange reports whether any key of the node lies in [low, high].
func (n *Node) ContainsInRange(low, high int64) bool {
	if n.isMulti {
		for _, kv := range n.multi {
			if low <= kv.Key && kv.Key <= high {
				return true
			}
		}
		return false
	}
	return low <= n.key && n.key <= high
}

// ITime returns the node's insertion timestamp (0 = ⊥).
func (n *Node) ITime() uint64 { return n.itime.Load() }

// DTime returns the node's deletion timestamp (0 = ⊥).
func (n *Node) DTime() uint64 { return n.dtime.Load() }

// SetITime publishes the node's insertion timestamp. It is idempotent in the
// lock-free provider (helpers may store the same value concurrently).
func (n *Node) SetITime(ts uint64) { n.itime.Store(ts) }

// SetDTime publishes the node's deletion timestamp.
func (n *Node) SetDTime(ts uint64) { n.dtime.Store(ts) }

// LimboNext returns the next node in the limbo list this node belongs to.
func (n *Node) LimboNext() *Node { return n.limboNext.Load() }

// Gen returns the node's recycling generation.
func (n *Node) Gen() uint64 { return n.gen.Load() }

// nodeHeaderBytes is the in-memory footprint of the Node header itself. The
// byte gauges are estimates: the header is embedded in a larger structure
// node (skip-list towers, tree children), so real footprints are strictly
// larger — good enough for limits, which bound growth, not exact RSS.
const nodeHeaderBytes = int64(unsafe.Sizeof(Node{}))

// approxBytes estimates the node's heap footprint for the limbo/quarantine
// byte gauges: the header plus any multi-key payload.
func (n *Node) approxBytes() int64 {
	if n.isMulti {
		return nodeHeaderBytes + int64(len(n.multi))*int64(unsafe.Sizeof(KV{}))
	}
	return nodeHeaderBytes
}

// numBags is the number of limbo bags per thread. A bag sealed at epoch e is
// reclaimable once the global epoch reaches e+2, so three bags (current,
// previous, reclaimable) suffice.
const numBags = 3

// scanInterval is the number of operations a thread performs between attempts
// to advance the global epoch (DEBRA's amortization).
const scanInterval = 32

type bag struct {
	epoch atomic.Uint64
	head  atomic.Pointer[Node]

	// maxDTime is a monotone fence over the deletion timestamps of every
	// node currently in the bag: Retire raises it before publishing the
	// node (so a reader that observes a node in the chain also observes a
	// fence at least as large as its dtime), and rotate resets it before
	// re-tagging the bag. A node retired before its dtime was published
	// (helpers may physically unlink another thread's victim) forces the
	// fence to ^uint64(0) — "unknown, never skip". Range queries use the
	// fence to skip entire bags whose contents predate their timestamp.
	maxDTime atomic.Uint64
}

// FreeFunc receives nodes whose reclamation is safe. Implementations
// typically push the node into a per-thread pool keyed by tid for reuse.
type FreeFunc func(tid int, n *Node)

// Metrics holds the domain's observability counters. All fields are
// optional (nil counters ignore writes), so the uninstrumented path costs
// one branch per event.
type Metrics struct {
	// Advances counts successful global-epoch advances.
	Advances *obs.Counter
	// Retires counts nodes placed in limbo via Retire.
	Retires *obs.Counter
	// Rotations counts limbo-bag rotations (bag sealed & reclaimed).
	Rotations *obs.Counter
	// Reclaimed counts nodes handed to the free function.
	Reclaimed *obs.Counter
	// Neutralizations counts threads whose announcement the watchdog
	// poisoned (the escalation ladder's final rung).
	Neutralizations *obs.Counter
	// Quarantined counts reclaimable nodes diverted to the quarantine list
	// while a neutralization was unacknowledged.
	Quarantined *obs.Counter
	// ForcedAdvances counts global-epoch advances forced by the watchdog
	// under limbo pressure (escalation rung 1).
	ForcedAdvances *obs.Counter
	// ForcedSweeps counts orphan-bag sweeps forced by the watchdog under
	// limbo pressure (escalation rung 2).
	ForcedSweeps *obs.Counter
}

// Domain is an EBR domain shared by all threads operating on one (or more)
// data structures.
type Domain struct {
	global     atomic.Uint64
	threads    []atomic.Pointer[Thread]
	registered atomic.Int32
	free       FreeFunc

	// Registration bookkeeping. mu guards freeIDs and slot adoption; the
	// orphans counter lets tryAdvance skip the orphan sweep entirely while
	// no thread has ever deregistered.
	mu      sync.Mutex
	freeIDs []int
	orphans atomic.Int32

	wd atomic.Pointer[Watchdog]

	// Flight recorder (may be nil). trPrefix namespaces ring labels when
	// several domains (shards) share one recorder.
	trec     *trace.Recorder
	trPrefix string

	// Stats.
	reclaimed atomic.Uint64
	advances  atomic.Uint64
	met       Metrics

	// O(1) memory accounting: limboNodes/limboBytes track every node placed
	// in a limbo bag (Retire adds, reclamation subtracts); quarNodes/
	// quarBytes track the quarantine list. The limits (0 = unlimited) bound
	// limboNodes+quarNodes — the total the domain cannot hand back to the
	// free pools.
	limboNodes atomic.Int64
	limboBytes atomic.Int64
	quarNodes  atomic.Int64
	quarBytes  atomic.Int64
	softLimit  atomic.Int64
	hardLimit  atomic.Int64

	// Two-phase neutralization (DESIGN.md §11). unacked counts neutralized
	// threads that have not yet acknowledged the poison at an op boundary;
	// while it is nonzero every reclaimable chain is diverted to quarantine
	// instead of the free function, because the neutralized thread may still
	// dereference any node that existed when it stalled — recycling one
	// would hand it ABA'd timestamps or a relinked limbo chain. quarMu
	// guards the list and serializes writes to quarTr.
	unacked         atomic.Int32
	neutralizations atomic.Uint64
	quarMu          sync.Mutex
	quarantine      []quarChain
	quarTr          *trace.Ring
}

// quarChain is one reclaimable limbo chain held in quarantine until every
// outstanding neutralization is acknowledged. tid selects the free pool the
// chain drains to, exactly as the diverted reclaimChain call would have.
type quarChain struct {
	head  *Node
	tid   int
	nodes int64
	bytes int64
}

// ErrTooManyThreads is returned by TryRegister when every slot is occupied
// by a live (non-deregistered) thread.
var ErrTooManyThreads = errors.New("epoch: too many threads registered")

// ErrNeutralized is the panic value raised when a thread that the watchdog
// neutralized reaches a protocol checkpoint: the thread's announcement was
// poisoned, its epoch protection is gone, and the in-flight (or next)
// operation must be abandoned. Recover it at the operation boundary, then
// Deregister the thread and re-register through the slot-adoption path.
var ErrNeutralized = errors.New("epoch: thread neutralized by watchdog")

// poisonedAnn is the announcement sentinel a neutralization installs: the
// quiescent bit is set, so tryAdvance, Stalls and the watchdog all treat the
// thread as no longer pinning the epoch. No legitimate announcement can
// equal it (the epoch would have to be 2^63-1).
const poisonedAnn = ^uint64(0)

// NewDomain creates an EBR domain supporting up to maxThreads registered
// threads. The global epoch starts at numBags so bag-age arithmetic never
// underflows.
func NewDomain(maxThreads int) *Domain {
	if maxThreads <= 0 {
		panic("epoch: maxThreads must be positive")
	}
	d := &Domain{threads: make([]atomic.Pointer[Thread], maxThreads)}
	d.global.Store(numBags)
	return d
}

// SetFreeFunc installs the reclamation callback. Must be called before any
// operations run. When unset, reclaimable nodes are simply dropped (the Go GC
// collects them), which still exercises the full epoch discipline.
func (d *Domain) SetFreeFunc(f FreeFunc) { d.free = f }

// SetMetrics wires observability counters into the domain. Call before the
// domain is shared between goroutines (metrics handles are nil-safe, so
// partial wiring is fine).
func (d *Domain) SetMetrics(m Metrics) { d.met = m }

// SetTrace attaches a flight recorder to the domain. The domain itself only
// uses it for the watchdog's stall-edge ring (labeled prefix+"watchdog");
// per-thread rings are attached by the layer that owns thread registration
// (Thread.SetTrace). Call before StartWatchdog.
func (d *Domain) SetTrace(rec *trace.Recorder, prefix string) {
	d.trec = rec
	d.trPrefix = prefix
	if rec != nil {
		// Quarantine events come from whichever thread happens to divert or
		// drain a chain; quarMu serializes them, so one ring is safe.
		d.quarTr = rec.Ring(prefix + "quarantine")
	}
}

// Register allocates a thread slot in the domain, panicking when the domain
// is full. It is a thin wrapper around TryRegister kept for existing
// callers; new code should prefer TryRegister. The returned Thread must only
// be used by a single goroutine.
func (d *Domain) Register() *Thread {
	t, err := d.TryRegister()
	if err != nil {
		panic(fmt.Sprintf("epoch: more than %d threads registered", len(d.threads)))
	}
	return t
}

// TryRegister allocates a thread slot in the domain, reusing slots released
// by Deregister before extending the high-water mark. It is safe to call
// concurrently and returns ErrTooManyThreads when every slot is held by a
// live thread.
func (d *Domain) TryRegister() (*Thread, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.freeIDs); n > 0 {
		id := d.freeIDs[n-1]
		d.freeIDs = d.freeIDs[:n-1]
		d.orphans.Add(-1)
		return d.adopt(id), nil
	}
	id := int(d.registered.Load())
	if id >= len(d.threads) {
		return nil, ErrTooManyThreads
	}
	t := &Thread{dom: d, id: id}
	t.ann.Store(quiescentBit) // quiescent
	e := d.global.Load()
	// Slot s always holds the most recent epoch ≡ s (mod numBags): tag the
	// slots for epochs e, e-1, e-2 so rotation arithmetic holds from the
	// first operation. The global epoch starts at numBags, so no underflow.
	for k := uint64(0); k < numBags; k++ {
		t.bags[(e-k)%numBags].epoch.Store(e - k)
	}
	t.localEpoch = e
	d.threads[id].Store(t)
	d.registered.Store(int32(id + 1))
	return t, nil
}

// adopt builds a fresh Thread over the slot of a deregistered one. Limbo
// bags still holding the most recent epoch of their slot are inherited in
// place: their chains may contain nodes a concurrent range query must still
// find (COLLECT), and the dead thread's bag keeps pointing at the shared
// chain so readers that captured the old Thread pointer stay correct — by
// the time the new owner rotates an inherited bag, every operation
// concurrent with the adoption has finished (rotation requires two further
// epoch advances, which active operations block). Stale bags (at least
// numBags epochs old, unreachable through any active operation's limbo
// view) are reclaimed immediately; Swap arbitrates with concurrent orphan
// sweeps. Caller holds d.mu.
func (d *Domain) adopt(id int) *Thread {
	old := d.threads[id].Load()
	t := &Thread{dom: d, id: id}
	t.ann.Store(quiescentBit)
	e := d.global.Load()
	for k := uint64(0); k < numBags; k++ {
		slot := (e - k) % numBags
		nb, ob := &t.bags[slot], &old.bags[slot]
		nb.epoch.Store(e - k)
		if ob.epoch.Load() == e-k {
			nb.maxDTime.Store(ob.maxDTime.Load()) // fence before head, as in Retire
			nb.head.Store(ob.head.Load())
		} else if head := ob.head.Swap(nil); head != nil {
			d.reclaimChain(id, head)
		}
	}
	t.localEpoch = e
	d.threads[id].Store(t)
	return t
}

// reclaimChain hands every node of a limbo chain to the free function,
// crediting the stats, and returns how many nodes left limbo. tid selects
// the receiving free pool.
//
// While any neutralization is unacknowledged the chain is diverted — intact,
// links preserved — to the quarantine list instead: the neutralized thread
// may still be walking it (its epoch protection is gone, but its goroutine
// cannot be stopped), and recycling a node it can reach would corrupt its
// walk with ABA'd timestamps or relinked chains. The diverted chain reaches
// the free pools when the last acknowledgement drains the quarantine.
func (d *Domain) reclaimChain(tid int, head *Node) int {
	if head == nil {
		return 0
	}
	if d.unacked.Load() > 0 {
		if n := d.quarantineChain(tid, head); n >= 0 {
			return n
		}
	}
	n, bytes := 0, int64(0)
	for head != nil {
		next := head.limboNext.Load()
		bytes += head.approxBytes()
		head.gen.Add(1)
		if d.free != nil {
			d.free(tid, head)
		}
		head = next
		n++
	}
	d.limboNodes.Add(int64(-n))
	d.limboBytes.Add(-bytes)
	d.reclaimed.Add(uint64(n))
	d.met.Reclaimed.Add(tid, uint64(n))
	return n
}

// quarantineChain moves a reclaimable chain from limbo accounting to the
// quarantine list. It returns -1 — telling reclaimChain to free normally —
// when the last acknowledgement arrived between the caller's unacked check
// and the lock: the re-check under quarMu pairs with drainQuarantine's lock
// acquisition, so no chain can slip into the quarantine after its drain.
func (d *Domain) quarantineChain(tid int, head *Node) int {
	d.quarMu.Lock()
	defer d.quarMu.Unlock()
	if d.unacked.Load() == 0 {
		return -1
	}
	var nodes, bytes int64
	for n := head; n != nil; n = n.limboNext.Load() {
		nodes++
		bytes += n.approxBytes()
	}
	d.quarantine = append(d.quarantine, quarChain{head: head, tid: tid, nodes: nodes, bytes: bytes})
	d.limboNodes.Add(-nodes)
	d.limboBytes.Add(-bytes)
	d.quarNodes.Add(nodes)
	d.quarBytes.Add(bytes)
	d.met.Quarantined.Add(tid, uint64(nodes))
	d.quarTr.Emit(trace.EvQuarantine, uint64(nodes), uint64(tid))
	return int(nodes)
}

// drainQuarantine hands every quarantined chain to the free function. Called
// when the last outstanding neutralization is acknowledged — the neutralized
// threads have all reached an op boundary (or been aborted), so nothing can
// reference the held nodes any more. The nodes go to the free pool of tid,
// the acknowledging thread, whose goroutine is the caller: a chain's own
// thread may be allocating from its pool right now. The Reclaimed metric is
// still credited to the thread that retired the chain.
func (d *Domain) drainQuarantine(tid int) {
	d.quarMu.Lock()
	defer d.quarMu.Unlock()
	chains := d.quarantine
	d.quarantine = nil
	var nodes, bytes int64
	for _, c := range chains {
		head := c.head
		for head != nil {
			next := head.limboNext.Load()
			head.gen.Add(1)
			if d.free != nil {
				d.free(tid, head)
			}
			head = next
		}
		d.reclaimed.Add(uint64(c.nodes))
		d.met.Reclaimed.Add(c.tid, uint64(c.nodes))
		nodes += c.nodes
		bytes += c.bytes
	}
	if nodes > 0 {
		d.quarNodes.Add(-nodes)
		d.quarBytes.Add(-bytes)
		d.quarTr.Emit(trace.EvQuarantineDrain, uint64(nodes), uint64(bytes))
	}
}

// GlobalEpoch returns the current global epoch (useful for stats/tests).
func (d *Domain) GlobalEpoch() uint64 { return d.global.Load() }

// Advances returns how many times the global epoch has advanced.
func (d *Domain) Advances() uint64 { return d.advances.Load() }

// Reclaimed returns the total number of nodes handed to the free function.
func (d *Domain) Reclaimed() uint64 { return d.reclaimed.Load() }

// LimboSize returns the total number of nodes currently in limbo across all
// threads. O(1): a domain counter maintained by Retire and reclamation, not
// a walk of the limbo chains — the watchdog and health checks read it every
// few milliseconds. Nodes moved to the quarantine list are not counted here;
// see QuarantinedNodes.
func (d *Domain) LimboSize() int { return int(d.limboNodes.Load()) }

// LimboNodes returns the number of nodes currently in limbo (O(1)).
func (d *Domain) LimboNodes() int64 { return d.limboNodes.Load() }

// LimboBytes returns the approximate heap bytes held in limbo (O(1); node
// headers plus multi-key payloads — embedded structure nodes are larger).
func (d *Domain) LimboBytes() int64 { return d.limboBytes.Load() }

// QuarantinedNodes returns the number of nodes held in the quarantine list,
// awaiting the acknowledgement of an outstanding neutralization.
func (d *Domain) QuarantinedNodes() int64 { return d.quarNodes.Load() }

// QuarantinedBytes returns the approximate heap bytes held in quarantine.
func (d *Domain) QuarantinedBytes() int64 { return d.quarBytes.Load() }

// Neutralizations returns how many threads have ever been neutralized.
func (d *Domain) Neutralizations() uint64 { return d.neutralizations.Load() }

// UnackedNeutralizations returns how many neutralized threads have not yet
// acknowledged the poison. While nonzero, reclamation diverts to quarantine.
func (d *Domain) UnackedNeutralizations() int { return int(d.unacked.Load()) }

// SetLimboLimits installs the domain's memory budget, in nodes (0 disables
// a limit). The limits bound LimboNodes()+QuarantinedNodes() — everything
// the domain has not yet handed back to the free pools. Crossing the soft
// limit arms the watchdog's escalation ladder; at the hard limit the
// provider's update admission gate fails updates with ErrMemoryPressure.
// Safe to call at any time.
func (d *Domain) SetLimboLimits(soft, hard int64) {
	d.softLimit.Store(soft)
	d.hardLimit.Store(hard)
}

// LimboLimits returns the configured (soft, hard) node limits (0 = none).
func (d *Domain) LimboLimits() (soft, hard int64) {
	return d.softLimit.Load(), d.hardLimit.Load()
}

// BoundedNodes returns the node count the limbo limits act on: nodes in
// limbo plus nodes in quarantine.
func (d *Domain) BoundedNodes() int64 {
	return d.limboNodes.Load() + d.quarNodes.Load()
}

// OverSoftLimit reports whether the soft limbo limit is breached.
func (d *Domain) OverSoftLimit() bool {
	s := d.softLimit.Load()
	return s > 0 && d.BoundedNodes() >= s
}

// OverHardLimit reports whether the hard limbo limit is breached.
func (d *Domain) OverHardLimit() bool {
	h := d.hardLimit.Load()
	return h > 0 && d.BoundedNodes() >= h
}

const quiescentBit = 1

// Thread is a per-goroutine EBR handle.
type Thread struct {
	dom *Domain
	id  int

	// ann is (epoch<<1) | quiescentBit. Written by the owner, read by all.
	ann atomic.Uint64

	// ops counts operations started. Single writer (the owner); the
	// watchdog reads it to tell "stuck in one long operation" from "many
	// short operations at the same epoch".
	ops atomic.Uint64

	// dead is set by Deregister; the slot is then skipped by stall scans
	// and its limbo bags become eligible for orphan sweeping.
	dead atomic.Bool

	// poison is the owner-facing half of the neutralization handshake:
	// 0 = healthy, 1 = neutralized and unacknowledged, 2 = acknowledged.
	// The watchdog CASes 0→1 (then poisons ann); the owner CASes 1→2 at the
	// first op boundary it reaches, releasing the quarantine when it was the
	// last outstanding acknowledgement. The flag — not the ann sentinel — is
	// authoritative: an owner racing the poison CAS in its announce loop can
	// overwrite the sentinel, but it cannot miss the flag.
	poison atomic.Uint32

	bags       [numBags]bag
	localEpoch uint64
	inOp       bool

	// pinned marks a critical section entered with Pin: StartOp/EndOp pairs
	// nest inside it as no-ops, so a multi-structure operation (a cross-shard
	// range query) can hold one announcement across several inner operations.
	pinned bool

	// tr is the thread's flight-recorder ring (nil when untraced). Owned by
	// the same goroutine as the rest of the mutable state.
	tr *trace.Ring
}

// ID returns the thread's slot index within its domain.
func (t *Thread) ID() int { return t.id }

// Domain returns the domain this thread is registered with.
func (t *Thread) Domain() *Domain { return t.dom }

// SetTrace attaches a flight-recorder ring to the thread. Call from the
// owner goroutine before the thread runs operations (the provider does this
// at registration).
func (t *Thread) SetTrace(r *trace.Ring) { t.tr = r }

// checkNeutralized is the op-boundary poison checkpoint: a neutralized
// thread acknowledges here (no operation is in flight, so it holds no node
// references) and aborts with ErrNeutralized.
func (t *Thread) checkNeutralized() {
	if t.poison.Load() != 0 {
		t.ackNeutralized()
		panic(ErrNeutralized)
	}
}

// CheckNeutralized is the mid-operation poison checkpoint: a neutralized
// thread aborts with ErrNeutralized WITHOUT acknowledging — references taken
// earlier in the operation may still be live, so the quarantine must hold
// until the panic unwinds to a boundary (AbortOp, EndOp, Deregister) that
// acknowledges. The provider calls this before every phase that reads shared
// timestamps or walks limbo chains, so a thread that resumes after being
// neutralized can never linearize an operation against recycled state.
func (t *Thread) CheckNeutralized() {
	if t.poison.Load() != 0 {
		panic(ErrNeutralized)
	}
}

// Poisoned reports whether the thread has been neutralized (acknowledged or
// not) without panicking. Callers that must release a resource (the update
// lock) before aborting use it in place of CheckNeutralized.
func (t *Thread) Poisoned() bool { return t.poison.Load() != 0 }

// ackNeutralized completes the two-phase handshake from the owner side. Only
// the 1→2 transition counts (later boundaries are no-ops); the last
// outstanding acknowledgement in the domain drains the quarantine.
func (t *Thread) ackNeutralized() {
	if !t.poison.CompareAndSwap(1, 2) {
		return
	}
	if t.tr != nil {
		t.tr.Emit(trace.EvNeutralizeAck, uint64(t.id), 0)
	}
	if t.dom.unacked.Add(-1) == 0 {
		t.dom.drainQuarantine(t.id)
	}
}

// StartOp announces the beginning of a data-structure operation. Every
// operation (update, search, or range query) must be bracketed by
// StartOp/EndOp. Operations must not nest.
func (t *Thread) StartOp() {
	if t.inOp {
		if t.pinned {
			return // nested inside a Pin: the pin's announcement covers us
		}
		panic("epoch: nested StartOp")
	}
	t.checkNeutralized() // op boundary: acknowledge the poison and abort
	if t.dead.Load() {
		panic("epoch: StartOp on a deregistered thread")
	}
	t.inOp = true
	e := t.dom.global.Load()
	fault.Inject("epoch.startop.stale")
	for {
		t.ann.Store(e << 1)
		// Announce-then-recheck (classic EBR). Between reading the global
		// epoch and publishing the announcement this thread is quiescent and
		// invisible to tryAdvance, so the global may advance arbitrarily far;
		// announcing that stale value breaks the two invariants the rest of
		// the system builds on. Reclamation safety: a reader more than one
		// epoch behind no longer blocks the rotation that frees nodes it can
		// still reach. Limbo-bag visibility: an updater's retires land in a
		// bag tagged with its stale epoch, below the localEpoch-1 floor of a
		// concurrent range query's LimboBags sweep — the query then misses a
		// node deleted with dtime >= its timestamp (the "missing key"
		// validation failures; see TestFaultStartOpStaleAnnounce). Once the
		// re-read confirms the announced value is current, the global can
		// advance at most once more while we remain in the operation.
		e2 := t.dom.global.Load()
		if e2 == e {
			break
		}
		e = e2
	}
	if e != t.localEpoch {
		t.rotate(e)
		t.localEpoch = e
	}
	fault.Inject("epoch.startop.announced")
	c := t.ops.Load() + 1
	t.ops.Store(c)
	if c%scanInterval == 0 {
		t.tryAdvance()
	}
}

// EndOp announces the end of the current operation. After EndOp the thread is
// quiescent and does not block epoch advancement.
func (t *Thread) EndOp() {
	if t.pinned {
		return // nested inside a Pin: Unpin ends the critical section
	}
	if !t.inOp {
		panic("epoch: EndOp without StartOp")
	}
	t.inOp = false
	t.ann.Store(t.ann.Load() | quiescentBit)
	// Op boundary: a thread neutralized mid-operation acknowledges here. No
	// panic — the finished operation's result is sound (every phase that
	// reads shared provider state re-checks the poison and aborts before
	// producing output; see LimboBags.Next and the provider checkpoints) —
	// but the *next* StartOp fails with ErrNeutralized until the thread is
	// deregistered and replaced.
	t.ackNeutralized()
}

// Pin enters a critical section like StartOp, but one that tolerates nested
// StartOp/EndOp pairs (which become no-ops until Unpin). A cross-shard range
// query pins the epoch of every shard it overlaps BEFORE acquiring its
// timestamp from the shared clock: from that point this domain cannot advance
// more than one epoch, so no limbo bag sealed from here on is reclaimed, and
// every node whose deletion timestamp the query must observe (dtime >= its
// timestamp, which is acquired after the pin) is still reachable by the
// limbo sweep when the traversal eventually visits this shard — exactly the
// retention a single-shard query gets from running StartOp and the timestamp
// acquisition back to back.
func (t *Thread) Pin() {
	if t.inOp {
		panic("epoch: Pin inside an operation")
	}
	t.checkNeutralized() // op boundary: acknowledge the poison and abort
	if t.dead.Load() {
		panic("epoch: Pin on a deregistered thread")
	}
	t.inOp = true
	t.pinned = true
	e := t.dom.global.Load()
	for {
		t.ann.Store(e << 1)
		// Same announce-then-recheck as StartOp: a pin published against a
		// stale epoch would neither hold back reclamation nor keep the
		// pinning query's limbo-bag visibility floor below concurrent
		// retires.
		e2 := t.dom.global.Load()
		if e2 == e {
			break
		}
		e = e2
	}
	if e != t.localEpoch {
		t.rotate(e)
		t.localEpoch = e
	}
	if t.tr != nil {
		t.tr.Emit(trace.EvEpochPin, e, 0)
	}
}

// Unpin leaves a pinned critical section and quiesces the announcement.
// Idempotent — panic-recovery paths may call it on an already-unpinned
// thread (AbortOp also clears a pin).
func (t *Thread) Unpin() {
	if !t.pinned {
		return
	}
	t.pinned = false
	t.inOp = false
	t.ann.Store(t.ann.Load() | quiescentBit)
	if t.tr != nil {
		t.tr.Emit(trace.EvEpochUnpin, t.localEpoch, 0)
	}
	t.ackNeutralized() // op boundary, same contract as EndOp
}

// AbortOp force-ends the current operation, if any. Unlike EndOp it is safe
// to call on a quiescent thread; panic-recovery paths use it to guarantee a
// thread that died mid-operation stops pinning the global epoch. It must be
// called from the owner goroutine or, after the owner died, from exactly one
// recovering goroutine.
func (t *Thread) AbortOp() {
	t.pinned = false
	if t.inOp {
		t.inOp = false
		t.ann.Store(t.ann.Load() | quiescentBit)
	}
	// Recovery checkpoint: a mid-operation poison panic (CheckNeutralized,
	// Retire, LimboBags) unwinds to here with the operation abandoned and no
	// reference surviving, so the acknowledgement is now safe.
	t.ackNeutralized()
}

// Deregister releases the thread's slot: any in-flight operation is aborted,
// the announcement becomes permanently quiescent (so the dead thread never
// again blocks epoch advancement) and the slot id is queued for reuse by a
// future TryRegister. The thread's limbo bags remain visible to concurrent
// range queries until they age out; once they are numBags epochs stale, the
// next epoch advance reclaims them (orphan sweep). Idempotent; the same
// ownership rule as AbortOp applies.
func (t *Thread) Deregister() {
	if !t.dead.CompareAndSwap(false, true) {
		return
	}
	t.inOp = false
	t.pinned = false
	t.ann.Store(t.ann.Load() | quiescentBit)
	// Deregistration is an op boundary: only the owner (or, after the owner
	// died, its single recoverer) may call it, so no reference survives.
	t.ackNeutralized()
	d := t.dom
	d.mu.Lock()
	d.freeIDs = append(d.freeIDs, t.id)
	d.orphans.Add(1)
	d.mu.Unlock()
}

// CurrentEpoch returns the epoch announced by the thread's current operation.
func (t *Thread) CurrentEpoch() uint64 { return t.localEpoch }

// InOp reports whether the thread is inside a critical section (StartOp or
// Pin without its matching end); only then is CurrentEpoch within one of the
// global epoch. Owner-only.
func (t *Thread) InOp() bool { return t.inOp }

// Retire places a node, already physically removed from the data structure,
// at the head of the thread's current limbo list. The node will be handed to
// the domain's free function only after every concurrently running operation
// has completed.
func (t *Thread) Retire(n *Node) {
	if !t.inOp {
		panic("epoch: Retire outside operation")
	}
	// Mid-operation poison checkpoint (no ack — see CheckNeutralized). The
	// node is dropped rather than retired: it is already unlinked, its dtime
	// (if any) predates the stall, and the Go GC collects it once nothing
	// references it, so skipping limbo loses nothing.
	if t.poison.Load() != 0 {
		panic(ErrNeutralized)
	}
	b := &t.bags[t.localEpoch%numBags]
	// Raise the bag's dtime fence before the node becomes reachable via
	// head: a reader that finds n in the chain is then guaranteed to read a
	// fence >= n's dtime (both sides are sequentially consistent atomics).
	// A node whose dtime is not yet published poisons the fence — the bag
	// can never be skipped until it rotates.
	dt := n.dtime.Load()
	if dt == 0 {
		dt = ^uint64(0)
	}
	if b.maxDTime.Load() < dt { // single writer: the owner
		b.maxDTime.Store(dt)
	}
	n.limboNext.Store(b.head.Load())
	b.head.Store(n) // single producer; readers snapshot head and walk links
	t.dom.limboNodes.Add(1)
	t.dom.limboBytes.Add(n.approxBytes())
	t.dom.met.Retires.Inc(t.id)
	if t.tr != nil {
		t.tr.Emit(trace.EvRetire, dt, b.epoch.Load())
	}
}

// ReclaimStale reclaims every one of the thread's limbo bags that has aged
// out (bag epoch + numBags <= global, the orphan-sweep criterion: below the
// visibility floor of every active and future range query). Owner-only, and
// only while quiescent — it exists for threads that are refused admission by
// the memory-pressure gate and therefore never reach the StartOp rotation
// that normally frees their bags. Without it, backpressure would pin the
// domain at the hard limit forever: the limbo lives in the rejected threads'
// own bags, and only the owner may empty them. Returns the number of nodes
// handed to reclamation (diverted to quarantine while a neutralization is
// unacknowledged, like any other reclaim).
func (t *Thread) ReclaimStale() int {
	if t.inOp {
		panic("epoch: ReclaimStale inside an operation")
	}
	t.checkNeutralized() // op boundary, same contract as StartOp
	if t.dead.Load() {
		panic("epoch: ReclaimStale on a deregistered thread")
	}
	g := t.dom.global.Load()
	total := 0
	for i := range t.bags {
		b := &t.bags[i]
		if b.epoch.Load()+numBags > g {
			continue
		}
		old := b.head.Load()
		if old == nil {
			continue
		}
		// Single writer: the owner is quiescent, so no StartOp rotation can
		// run concurrently. The epoch tag is left in place — the bag is empty,
		// and the usual rotation re-tags it when the local epoch next lands on
		// this slot.
		b.head.Store(nil)
		b.maxDTime.Store(0)
		total += t.dom.reclaimChain(t.id, old)
	}
	if total > 0 && t.tr != nil {
		t.tr.Emit(trace.EvReclaim, uint64(total), uint64(t.id))
	}
	return total
}

// rotate is called by the owner when its local epoch changes to e: the bag
// slot for e is reclaimed (its contents are at least numBags-1 epochs old)
// and re-tagged. Ordering matters for concurrent limbo readers: the head is
// cleared before the epoch tag is updated, so a reader that observes the new
// epoch observes the emptied (or newly refilled) list.
func (t *Thread) rotate(e uint64) {
	b := &t.bags[e%numBags]
	old := b.head.Load()
	if b.epoch.Load()+2 > e {
		// Cannot happen given the slot arithmetic (slot e%numBags last
		// held epoch e-numBags), but guard against silent corruption.
		panic("epoch: rotating a bag that is too young")
	}
	b.head.Store(nil)
	b.maxDTime.Store(0) // reset with head cleared, before the re-tag below
	b.epoch.Store(e)
	fault.Inject("epoch.rotate.mid")
	n := t.dom.reclaimChain(t.id, old)
	t.dom.met.Rotations.Inc(t.id)
	if t.tr != nil {
		t.tr.Emit(trace.EvRotate, e, uint64(n))
	}
}

// tryAdvance attempts to advance the global epoch: it succeeds if every
// registered thread is either quiescent or has announced the current epoch.
func (t *Thread) tryAdvance() {
	t.dom.tryAdvanceFrom(t.id, t.tr)
}

// tryAdvanceFrom is tryAdvance for callers that are not a registered thread
// (the watchdog's forced advances). A neutralized thread's poisoned
// announcement has the quiescent bit set, so it no longer blocks the scan.
// tid only attributes metrics/reclaims; tr may be nil.
func (d *Domain) tryAdvanceFrom(tid int, tr *trace.Ring) bool {
	e := d.global.Load()
	n := int(d.registered.Load())
	for i := 0; i < n; i++ {
		other := d.threads[i].Load()
		if other == nil {
			continue
		}
		a := other.ann.Load()
		if a&quiescentBit == 0 && a>>1 != e {
			return false // other thread still active in an older epoch
		}
	}
	if !d.global.CompareAndSwap(e, e+1) {
		return false
	}
	d.advances.Add(1)
	d.met.Advances.Inc(tid)
	if tr != nil {
		tr.Emit(trace.EvEpochAdvance, e+1, 0)
	}
	if d.orphans.Load() > 0 {
		d.sweepOrphans(e+1, tid, tr)
	}
	return true
}

// Neutralize poisons the thread in slot id: its announcement is CASed to the
// poisoned sentinel so it stops pinning the global epoch, and every
// reclamation in the domain diverts to the quarantine list until the thread
// acknowledges at its next protocol checkpoint. Returns false when the slot
// is empty, dead, or already neutralized. This is the watchdog escalation
// ladder's final rung; call it only on a thread the duration-based stall
// detector has flagged.
func (d *Domain) Neutralize(id int) bool {
	if id < 0 || id >= int(d.registered.Load()) {
		return false
	}
	t := d.threads[id].Load()
	if t == nil || t.dead.Load() || t.poison.Load() != 0 {
		return false
	}
	if !t.poison.CompareAndSwap(0, 1) {
		return false
	}
	// Divert-before-poison: unacked must be visible before the sentinel can
	// let the epoch advance past the zombie, so every chain that becomes
	// reclaimable after this point is quarantined, never recycled. Both are
	// sequentially consistent, so any reclaimer that observed the advance
	// also observes unacked > 0.
	d.unacked.Add(1)
	if a := t.ann.Load(); a&quiescentBit == 0 {
		// Best-effort: if the owner concurrently rewrites its announcement it
		// is alive and will reach a checkpoint on its own; the poison flag —
		// which it cannot miss — is the authoritative half.
		t.ann.CompareAndSwap(a, poisonedAnn)
	}
	d.neutralizations.Add(1)
	d.met.Neutralizations.Inc(id)
	return true
}

// ForceAdvance makes up to rounds attempts to advance the global epoch from
// outside any registered thread (the watchdog's escalation rung 1). Each
// successful advance lets live threads rotate — and therefore reclaim — a
// limbo bag on their next StartOp, and sweeps orphan bags directly. Returns
// how many advances succeeded; it stops early at the first failure (an
// active thread on an older epoch blocks any further advance too).
func (d *Domain) ForceAdvance(rounds int) int {
	adv := 0
	for i := 0; i < rounds; i++ {
		if !d.tryAdvanceFrom(0, nil) {
			break
		}
		adv++
	}
	if adv > 0 {
		d.met.ForcedAdvances.Add(0, uint64(adv))
	}
	return adv
}

// ForceSweep reclaims the stale limbo bags of deregistered threads without
// waiting for a registered thread's next successful advance (the watchdog's
// escalation rung 2). Live threads' bags are never touched: only their owner
// may rotate them (the owner's head.Store(nil) during rotate would race an
// external Swap). Returns how many nodes left limbo.
func (d *Domain) ForceSweep() int {
	freed := d.sweepOrphans(d.global.Load(), 0, nil)
	if freed > 0 {
		d.met.ForcedSweeps.Add(0, uint64(freed))
	}
	return freed
}

// sweepOrphans reclaims limbo bags of deregistered threads once they are
// numBags epochs stale — no active operation's limbo view (which reaches
// back at most one epoch before the operation's own) can still include
// them. Without this, a thread that dies with retired nodes would pin those
// nodes forever, since only a bag's owner ever rotates it. d.mu arbitrates
// with slot adoption; head.Swap arbitrates chain ownership. Returns how many
// nodes were reclaimed (or quarantined).
func (d *Domain) sweepOrphans(e uint64, tid int, tr *trace.Ring) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	n := int(d.registered.Load())
	for i := 0; i < n; i++ {
		t := d.threads[i].Load()
		if t == nil || !t.dead.Load() {
			continue
		}
		for b := range t.bags {
			bg := &t.bags[b]
			if bg.epoch.Load()+numBags > e {
				continue
			}
			if head := bg.head.Swap(nil); head != nil {
				freed := d.reclaimChain(tid, head)
				total += freed
				if freed > 0 && tr != nil {
					tr.Emit(trace.EvReclaim, uint64(freed), uint64(i))
				}
			}
		}
	}
	return total
}

// Stall describes one thread pinning the global epoch.
type Stall struct {
	// ThreadID is the slot index of the stalled thread.
	ThreadID int
	// Epoch is the epoch announced by the thread's in-flight operation.
	Epoch uint64
	// Global is the global epoch at observation time.
	Global uint64
	// Stuck is how long the thread has been inside the same operation.
	// Only the watchdog can measure it; it is zero in Stalls results.
	Stuck time.Duration
}

// Lag returns how many epochs the stalled thread is behind the global epoch.
func (s Stall) Lag() uint64 { return s.Global - s.Epoch }

// Stalls returns every live thread currently inside an operation whose
// announced epoch lags the global epoch by at least minLag (clamped to 1).
// Note that a single stalled thread caps the achievable lag at one — the
// global epoch can advance at most once past its announcement — so lag-based
// detection alone cannot see it; the Watchdog's duration-based detection
// exists for exactly that case (the DEBRA+ observation).
func (d *Domain) Stalls(minLag uint64) []Stall {
	if minLag < 1 {
		minLag = 1
	}
	e := d.global.Load()
	var out []Stall
	n := int(d.registered.Load())
	for i := 0; i < n; i++ {
		t := d.threads[i].Load()
		if t == nil || t.dead.Load() {
			continue
		}
		a := t.ann.Load()
		if a&quiescentBit != 0 {
			continue
		}
		if ae := a >> 1; ae+minLag <= e {
			out = append(out, Stall{ThreadID: i, Epoch: ae, Global: e})
		}
	}
	return out
}

// MaxLag returns the largest epoch lag among active threads (0 when every
// thread is quiescent or current).
func (d *Domain) MaxLag() uint64 {
	e := d.global.Load()
	var max uint64
	n := int(d.registered.Load())
	for i := 0; i < n; i++ {
		t := d.threads[i].Load()
		if t == nil || t.dead.Load() {
			continue
		}
		a := t.ann.Load()
		if a&quiescentBit != 0 {
			continue
		}
		if ae := a >> 1; ae < e && e-ae > max {
			max = e - ae
		}
	}
	return max
}

// StalledThreads reports the domain's current stall set: the running
// watchdog's duration-based observation when one is attached, otherwise the
// instantaneous lag-based Stalls(2). The lag-based fallback is conservative
// (transient lag-1 threads are normal); attach a Watchdog for real
// detection. Observability gauges and health checks read this.
func (d *Domain) StalledThreads() []Stall {
	if w := d.wd.Load(); w != nil {
		return w.Stalls()
	}
	return d.Stalls(2)
}

// LimboBags is a zero-allocation pull iterator over the limbo bags visible
// to the calling thread's current operation — the bag-level refinement of
// GetLimboLists from the paper's EBR ADT. Obtain one with Thread.LimboBags
// and drain it with Next. The iterator is a plain value: it lives on the
// caller's stack, so the range-query hot path pays no closure or interface
// allocation per sweep.
type LimboBags struct {
	d   *Domain
	t   *Thread // calling thread, re-checked for poison on every pull
	cur *Thread
	min uint64
	i   int // next thread slot to load once cur is exhausted
	b   int // next bag index within cur
	n   int // registered-thread snapshot
}

// LimboBags returns an iterator over every limbo bag that may contain nodes
// retired during the calling thread's current operation: every bag whose
// epoch is at least the caller's announced epoch minus one. Older bags can
// only hold nodes retired strictly before the operation began, and may be
// reclaimed concurrently.
func (t *Thread) LimboBags() LimboBags {
	if !t.inOp {
		panic("epoch: LimboBags outside operation")
	}
	t.CheckNeutralized() // mid-op: a zombie must not start a limbo sweep
	d := t.dom
	return LimboBags{d: d, t: t, min: t.localEpoch - 1, n: int(d.registered.Load())}
}

// Next returns the head of the next non-empty visible limbo bag together
// with the bag's maxDTime fence: a monotone upper bound on the deletion
// timestamp of every node reachable from head. The fence lets a range query
// with timestamp ts skip the whole bag when fence < ts — no node in it can
// be missing from the query's traversal view. The chain reachable from head
// is immutable while the caller remains in its operation; walk it via
// Node.LimboNext. ok is false when the iterator is exhausted.
func (it *LimboBags) Next() (head *Node, maxDTime uint64, ok bool) {
	// A thread neutralized mid-sweep lost its epoch protection: the chain it
	// would pull next may already have been diverted to quarantine — held
	// intact for exactly this walk — but nothing newer is guaranteed visible,
	// so the sweep (and the operation) must abort before producing output.
	it.t.CheckNeutralized()
	for {
		if it.cur == nil {
			if it.i >= it.n {
				return nil, 0, false
			}
			it.cur = it.d.threads[it.i].Load()
			it.i++
			it.b = 0
			if it.cur == nil {
				continue
			}
		}
		for it.b < numBags {
			bg := &it.cur.bags[it.b]
			it.b++
			if bg.epoch.Load() < it.min {
				continue
			}
			// Head before fence: paired with Retire (fence before head),
			// sequential consistency guarantees fence >= dtime of every
			// node observed in the chain.
			if head := bg.head.Load(); head != nil {
				return head, bg.maxDTime.Load(), true
			}
		}
		it.cur = nil
	}
}

// ForEachLimboList implements GetLimboLists from the paper's EBR ADT: it
// invokes f with the head of every limbo list that may contain nodes retired
// during the calling thread's current operation. It is the closure-based
// veneer over LimboBags kept for callers that do not need the bag fence or
// the allocation-free pull interface.
func (t *Thread) ForEachLimboList(f func(head *Node)) {
	it := t.LimboBags()
	for head, _, ok := it.Next(); ok; head, _, ok = it.Next() {
		f(head)
	}
}
