// Package ebrrq is a Go implementation of "Harnessing Epoch-based
// Reclamation for Efficient Range Queries" (Arbel-Raviv and Brown,
// PPoPP 2018): a general technique for adding linearizable range queries to
// concurrent ordered sets by exploiting the limbo lists of epoch-based
// memory reclamation.
//
// The package bundles six concurrent set implementations (two linked lists,
// a skip list, two binary search trees and a relaxed (a,b)-tree), three RQ
// provider algorithms from the paper (lock-based, emulated-HTM, lock-free),
// and three baselines (a non-linearizable traversal, the Petrank-Timnat
// Snap-collector, and Read-Log-Update). Pick a structure and a technique:
//
//	set, err := ebrrq.New(ebrrq.SkipList, ebrrq.LockFree, 8)
//	th := set.NewThread()      // one per goroutine
//	th.Insert(10, 100)
//	kvs := th.RangeQuery(0, 50) // linearizable
//
// Keys are int64 in [ebrrq.MinKey, ebrrq.MaxKey]; values are int64.
package ebrrq

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"ebrrq/internal/ds/rlucitrus"
	"ebrrq/internal/ds/rlulist"
	"ebrrq/internal/epoch"
	"ebrrq/internal/obs"
	"ebrrq/internal/rqprov"
	"ebrrq/internal/trace"
)

// KV is a key-value pair returned by range queries.
type KV = epoch.KV

// ErrMemoryPressure is returned by TryInsert/TryDelete (and raised as a
// panic by Insert/Delete) when the set's EBR domain sits at its configured
// hard limbo limit: admitting the update would grow unreclaimed memory past
// the bound, so the write is shed instead. See Options.LimboHardLimit.
var ErrMemoryPressure = rqprov.ErrMemoryPressure

// ErrNeutralized is returned by TryInsert/TryDelete (and raised as a panic
// by the other operations) on a thread the epoch watchdog neutralized after
// a prolonged stall: the handle's epoch protection has been revoked. Close
// the thread and register a fresh one with TryNewThread.
var ErrNeutralized = epoch.ErrNeutralized

// MinKey and MaxKey bound the usable key space (values outside are reserved
// for sentinels).
const (
	MinKey = int64(math.MinInt64 + 1)
	MaxKey = int64(math.MaxInt64 - 3)
)

// DataStructure selects the underlying concurrent set (paper Figure 4).
type DataStructure int

const (
	// LFList is the Harris-Michael lock-free linked list.
	LFList DataStructure = iota
	// LazyList is the lazy list (per-node locks, logical deletion).
	LazyList
	// SkipList is the optimistic lazy skip list.
	SkipList
	// LFBST is the Natarajan-Mittal lock-free external BST.
	LFBST
	// Citrus is the internal BST with fine-grained locks and RCU.
	Citrus
	// ABTree is the leaf-oriented relaxed (a,b)-tree with group updates.
	ABTree
	// BSlack is the relaxed B-slack tree (§6 of the paper): an (a,b)-tree
	// whose underflow rebalancing repacks entire sibling groups in one
	// group update, bounding slack for space efficiency.
	BSlack
)

// String returns the structure's display name from the paper.
func (d DataStructure) String() string {
	switch d {
	case LFList:
		return "LFList"
	case LazyList:
		return "LazyList"
	case SkipList:
		return "SkipList"
	case LFBST:
		return "LFBST"
	case Citrus:
		return "Citrus"
	case ABTree:
		return "ABTree"
	case BSlack:
		return "BSlack"
	}
	return "?"
}

// Mode selects the EBR range-query linearization mode (the paper's
// "technique" axis for the epoch-based provider).
type Mode int

const (
	// Unsafe is the non-linearizable single-traversal baseline.
	Unsafe Mode = iota
	// Lock is the paper's lock-based RQ provider (§4.3).
	Lock
	// HTM is the paper's HTM-based provider (§4.4), emulated in software.
	HTM
	// LockFree is the paper's DCSS-based lock-free provider (§4.5).
	LockFree
	// Snap is the Petrank-Timnat Snap-collector baseline (lists only).
	Snap
	// RLU is the Read-Log-Update baseline (LazyList and Citrus only).
	RLU
)

// String returns the technique's display name from the paper's figures.
func (t Mode) String() string {
	switch t {
	case Unsafe:
		return "Unsafe"
	case Lock:
		return "Lock"
	case HTM:
		return "HTM"
	case LockFree:
		return "Lock-free"
	case Snap:
		return "Snap-collector"
	case RLU:
		return "RLU"
	}
	return "?"
}

// Supported reports whether the (structure, mode) pair exists for the
// default EBR technique — the feasibility matrix of the paper's artifact
// (Table 1). For other techniques use Technique.Supports.
func Supported(d DataStructure, t Mode) bool {
	return EBR.Supports(d, t)
}

// Set is a concurrent ordered map[int64]int64 with range queries.
type Set struct {
	ds    DataStructure
	mode  Mode
	tq    Technique
	impl  techSet
	met   *setMetrics  // nil unless Options.Metrics was set
	mtids atomic.Int32 // metric shard ids (covers RLU, which has no provider tid)
}

// Thread is a per-goroutine handle to a Set. Handles must not be shared
// between goroutines.
type Thread struct {
	set   *Set
	impl  techThread
	tr    *trace.Ring // flight-recorder ring (nil when untraced)
	mtid  int         // metric shard id
	opSeq uint64      // operations issued; drives latency sampling
}

type setImpl interface {
	newThread(pt *rqprov.Thread) threadImpl
}

type threadImpl interface {
	insert(key, value int64) bool
	remove(key int64) bool
	contains(key int64) (int64, bool)
	rangeQuery(low, high int64) []KV
}

// Options tunes construction.
type Options struct {
	// Technique selects the range-query algorithm family (nil — the
	// default — is EBR, the paper's provider). See the Technique docs for
	// the available techniques and their trade-offs. The technique must
	// support the requested (structure, mode) pair: Bundle covers LazyList
	// and SkipList under the timestamp-based modes.
	Technique Technique

	// Recorder, if non-nil, receives every timestamped update (validation
	// harness support). Ignored by Snap and RLU.
	Recorder rqprov.Recorder

	// Metrics, if non-nil, turns on the observability layer: per-op-class
	// counts and latency histograms at this layer, plus provider and EBR
	// instrumentation, all registered with the given registry (see
	// internal/obs). When nil — the default — no instrumentation runs and
	// the hot paths are identical to a build without the layer.
	Metrics *obs.Registry

	// MetricLabels, when non-empty, is a Prometheus label list (e.g.
	// `shard="3"`) stamped on every metric this set registers, so several
	// sets can share one registry without their series colliding. The
	// sharded constructor labels each shard this way.
	MetricLabels string

	// Clock is the timestamp source the set's RQ provider linearizes on.
	// Nil gives the set a private clock (the default, single-structure
	// setup); the sharded constructor passes one shared clock to every
	// shard. Ignored by Snap and RLU, which have no provider.
	Clock rqprov.TimestampSource

	// WaitBudget, when positive, bounds how long a range query waits on an
	// unresolved concurrent update before resolving it conservatively; 0
	// (the default) waits indefinitely. See rqprov.Config.WaitBudget.
	// Ignored by Snap and RLU.
	WaitBudget int

	// Trace, if non-nil, attaches the flight recorder (DESIGN.md §10):
	// every thread records op begin/end spans plus the provider's and EBR
	// layer's lifecycle events into per-thread rings, readable at any time
	// via Trace.Snapshot (or /debug/trace when served). Nil — the default —
	// keeps the zero-cost disabled path. Ignored by Snap-less baselines
	// without a provider (RLU).
	Trace *trace.Recorder

	// TraceLabel prefixes this set's trace ring labels (e.g. "s3/") so
	// several sets — the shards of a Sharded — can share one recorder.
	TraceLabel string

	// LimboSoftLimit / LimboHardLimit bound the set's unreclaimed node
	// count (limbo plus neutralization quarantine; 0, the default, disables
	// a limit). Past the soft limit an attached epoch watchdog escalates
	// (forced advances → orphan sweeps → neutralization, if enabled); at the
	// hard limit Insert/Delete are rejected with ErrMemoryPressure until
	// reclamation drains below it. Contains and RangeQuery are never
	// backpressured. Ignored by Snap and RLU, which have no provider.
	LimboSoftLimit int64
	LimboHardLimit int64

	// PressureWait, when positive, makes a backpressured update wait up to
	// this long for limbo to drain below the hard limit before giving up
	// with ErrMemoryPressure. 0 fails fast.
	PressureWait time.Duration
}

// opClass indexes the set-layer per-operation metrics.
const (
	opInsert = iota
	opDelete
	opContains
	opRQ
	numOpClasses
)

// latSampleEvery is the per-thread sampling period for point-op latency
// histograms: timing every insert/delete/contains would double their cost
// (two clock reads per op), so one in 16 is measured. Counts stay exact;
// range queries, being far rarer and heavier, are always timed.
const latSampleEvery = 16

var opNames = [numOpClasses]string{"insert", "delete", "contains", "rq"}

// setMetrics holds the set-layer observability handles.
type setMetrics struct {
	ops   [numOpClasses]*obs.Counter   // ebrrq_ops_total{op=...}
	lat   [numOpClasses]*obs.Histogram // ebrrq_op_latency_ns_<op> (sampled)
	rqLat *obs.Histogram               // ebrrq_rq_latency_ns (every RQ)
}

func newSetMetrics(reg *obs.Registry) *setMetrics {
	m := &setMetrics{}
	for op, name := range opNames {
		m.ops[op] = reg.CounterL("ebrrq_ops_total", `op="`+name+`"`,
			"operations completed by class")
		if op != opRQ {
			m.lat[op] = reg.Histogram("ebrrq_op_latency_ns_"+name,
				"sampled (1/"+fmt.Sprint(latSampleEvery)+") "+name+" latency in nanoseconds")
		}
	}
	m.rqLat = reg.Histogram("ebrrq_rq_latency_ns", "range-query latency in nanoseconds")
	return m
}

// New creates a set using the given structure, technique and maximum thread
// count.
func New(d DataStructure, t Mode, maxThreads int) (*Set, error) {
	return NewWithOptions(d, t, maxThreads, Options{})
}

// NewWithOptions is New with tuning options.
func NewWithOptions(d DataStructure, t Mode, maxThreads int, opt Options) (*Set, error) {
	tq := opt.Technique
	if tq == nil {
		tq = EBR
	}
	if !tq.Supports(d, t) {
		return nil, fmt.Errorf("ebrrq: the %v technique does not support %v in %v mode", tq, d, t)
	}
	if maxThreads <= 0 {
		return nil, fmt.Errorf("ebrrq: maxThreads must be positive")
	}
	s := &Set{ds: d, mode: t, tq: tq}
	reg := opt.Metrics
	if reg != nil {
		reg = reg.WithLabels(opt.MetricLabels)
		s.met = newSetMetrics(reg)
	}
	impl, err := tq.newSet(d, t, maxThreads, opt, reg)
	if err != nil {
		return nil, err
	}
	s.impl = impl
	return s, nil
}

// DataStructure returns the set's structure.
func (s *Set) DataStructure() DataStructure { return s.ds }

// Mode returns the set's EBR linearization mode.
func (s *Set) Mode() Mode { return s.mode }

// Technique returns the set's range-query technique (EBR or Bundle).
func (s *Set) Technique() Technique { return s.tq }

// Health returns the set's health check: critical when updates are being
// rejected at the hard limbo limit, degraded when the escalation ladder is
// working (stalls, unacknowledged neutralizations, breached soft limit).
// The zero HealthCheck (nil Check/Warn) is returned by techniques with
// nothing to report (RLU).
func (s *Set) Health() obs.HealthCheck { return s.impl.health() }

// Domain returns the epoch reclamation domain backing the set's node
// memory — attach watchdogs or read limbo statistics through it. Nil for
// techniques without one (RLU).
func (s *Set) Domain() *epoch.Domain { return s.impl.domain() }

// Clock returns the timestamp source the set's updates and range queries
// linearize on (nil for non-timestamp techniques: RLU, and EBR in Snap
// mode still has a clock but does not use it).
func (s *Set) Clock() rqprov.TimestampSource { return s.impl.clock() }

// LimboSize returns the number of nodes awaiting epoch reclamation (0 when
// the technique has no epoch domain).
func (s *Set) LimboSize() int {
	d := s.impl.domain()
	if d == nil {
		return 0
	}
	return d.LimboSize()
}

// UnreclaimedNodes returns the count bounded by the limbo limits: limbo
// plus neutralization quarantine (0 without an epoch domain).
func (s *Set) UnreclaimedNodes() int64 {
	d := s.impl.domain()
	if d == nil {
		return 0
	}
	return d.BoundedNodes()
}

// UnreclaimedBytes approximates the bytes held by unreclaimed nodes (0
// without an epoch domain).
func (s *Set) UnreclaimedBytes() int64 {
	d := s.impl.domain()
	if d == nil {
		return 0
	}
	return d.LimboBytes() + d.QuarantinedBytes()
}

// HTMAborts returns the cumulative emulated-HTM abort count (0 unless the
// set runs the EBR technique in HTM mode).
func (s *Set) HTMAborts() uint64 { return s.impl.htmAborts() }

// NewThread registers a goroutine with the set, panicking when every thread
// slot is held by a live thread. Prefer TryNewThread where running out of
// slots is survivable.
func (s *Set) NewThread() *Thread {
	t, err := s.TryNewThread()
	if err != nil {
		panic("ebrrq: " + err.Error())
	}
	return t
}

// TryNewThread registers a goroutine with the set. Slots released by
// Thread.Close are reused, so the thread count bounds concurrency, not the
// set's lifetime total. RLU sets have no slot recovery; for them
// TryNewThread is NewThread. The returned Thread must only be used by a
// single goroutine.
func (s *Set) TryNewThread() (*Thread, error) {
	tt, err := s.impl.newThread()
	if err != nil {
		return nil, err
	}
	return &Thread{set: s, impl: tt, tr: tt.traceRing(), mtid: int(s.mtids.Add(1)) - 1}, nil
}

// Close releases the thread's slot for reuse by a future NewThread or
// TryNewThread. Any in-flight provider state is cleared, so a thread being
// closed by a supervisor after its goroutine panicked stops pinning the
// epoch (its abandoned limbo nodes are reclaimed by the orphan sweep once
// they age out). Idempotent; a no-op for RLU sets. After Close the handle
// must not be used again.
func (t *Thread) Close() { t.impl.close() }

// ID returns the thread's registration index within its set (-1 when the
// technique does not number threads, e.g. RLU). Stable for the lifetime of
// the handle; reused after Close.
func (t *Thread) ID() int { return t.impl.id() }

// guard is deferred by every public operation: a panic that unwinds
// data-structure code mid-operation (a bug, or fault injection in the chaos
// suite) would otherwise leave this thread announced in an old epoch —
// blocking reclamation domain-wide — and possibly holding a deletion
// announcement that wedges every future range query. Abort clears both, then
// the panic continues to the caller, who may keep using the thread.
func (t *Thread) guard() {
	if r := recover(); r != nil {
		t.impl.abort()
		panic(r)
	}
}

// admitUpdate runs the provider's backpressure gate before an update enters
// the structure (and before it announces an epoch — a waiting update must
// not pin the reclamation it waits for). It panics with ErrMemoryPressure
// when the write must be shed; TryInsert/TryDelete convert that into an
// error return.
func (t *Thread) admitUpdate() {
	if err := t.impl.admitUpdate(); err != nil {
		panic(err)
	}
}

// opStart begins set-layer accounting for one point operation and reports
// whether this operation's latency is sampled.
func (t *Thread) opStart() (time.Time, bool) {
	t.opSeq++
	if t.opSeq%latSampleEvery == 0 {
		return time.Now(), true
	}
	return time.Time{}, false
}

// opDone completes set-layer accounting for one point operation.
func (t *Thread) opDone(op int, t0 time.Time, sampled bool) {
	m := t.set.met
	m.ops[op].Inc(t.mtid)
	if sampled {
		m.lat[op].Observe(uint64(time.Since(t0)))
	}
}

// Insert adds key with the given value; it returns false (without
// overwriting) if key is already present.
func (t *Thread) Insert(key, value int64) bool {
	defer t.guard()
	t.admitUpdate()
	t.tr.OpBegin(trace.OpInsert, uint64(key))
	if t.set.met == nil {
		ok := t.impl.insert(key, value)
		t.tr.OpEnd(trace.OpInsert)
		return ok
	}
	t0, sampled := t.opStart()
	ok := t.impl.insert(key, value)
	t.opDone(opInsert, t0, sampled)
	t.tr.OpEnd(trace.OpInsert)
	return ok
}

// Delete removes key, reporting whether it was present.
func (t *Thread) Delete(key int64) bool {
	defer t.guard()
	t.admitUpdate()
	t.tr.OpBegin(trace.OpDelete, uint64(key))
	if t.set.met == nil {
		ok := t.impl.remove(key)
		t.tr.OpEnd(trace.OpDelete)
		return ok
	}
	t0, sampled := t.opStart()
	ok := t.impl.remove(key)
	t.opDone(opDelete, t0, sampled)
	t.tr.OpEnd(trace.OpDelete)
	return ok
}

// TryInsert is Insert with graceful degradation: instead of panicking it
// returns ErrMemoryPressure when the update is shed at the hard limbo limit
// and ErrNeutralized when the watchdog revoked this thread's epoch
// protection (Close the handle and TryNewThread a fresh one). Any other
// panic propagates unchanged.
func (t *Thread) TryInsert(key, value int64) (ok bool, err error) {
	defer degradeErr(&err)
	return t.Insert(key, value), nil
}

// TryDelete is Delete with graceful degradation; see TryInsert.
func (t *Thread) TryDelete(key int64) (ok bool, err error) {
	defer degradeErr(&err)
	return t.Delete(key), nil
}

// degradeErr converts the two survivable degradation panics into error
// returns and lets everything else propagate.
func degradeErr(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if e, isErr := r.(error); isErr &&
		(errors.Is(e, ErrMemoryPressure) || errors.Is(e, ErrNeutralized)) {
		*err = e
		return
	}
	panic(r)
}

// Contains returns the value stored under key.
func (t *Thread) Contains(key int64) (int64, bool) {
	defer t.guard()
	t.tr.OpBegin(trace.OpContains, uint64(key))
	if t.set.met == nil {
		v, ok := t.impl.contains(key)
		t.tr.OpEnd(trace.OpContains)
		return v, ok
	}
	t0, sampled := t.opStart()
	v, ok := t.impl.contains(key)
	t.opDone(opContains, t0, sampled)
	t.tr.OpEnd(trace.OpContains)
	return v, ok
}

// RangeQuery returns all pairs with low <= key <= high, sorted by key. With
// every technique except Unsafe the result is linearizable. The returned
// slice is valid until this thread's next range query.
func (t *Thread) RangeQuery(low, high int64) []KV {
	defer t.guard()
	t.tr.OpBegin(trace.OpRQ, uint64(low))
	m := t.set.met
	if m == nil {
		res := t.impl.rangeQuery(low, high)
		t.tr.OpEnd(trace.OpRQ)
		return res
	}
	t0 := time.Now()
	res := t.impl.rangeQuery(low, high)
	m.ops[opRQ].Inc(t.mtid)
	m.rqLat.Observe(uint64(time.Since(t0)))
	t.tr.OpEnd(trace.OpRQ)
	return res
}

// LastRQTimestamp returns the linearization timestamp of this thread's most
// recent range query (timestamp-based techniques only; 0 otherwise).
func (t *Thread) LastRQTimestamp() uint64 { return t.impl.lastRQTS() }

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

// provSet is the method set shared by all provider-based structures.
type provSet interface {
	Insert(t *rqprov.Thread, key, value int64) bool
	Delete(t *rqprov.Thread, key int64) bool
	Contains(t *rqprov.Thread, key int64) (int64, bool)
	RangeQuery(t *rqprov.Thread, low, high int64) []KV
}

type provImpl struct{ s provSet }

func (p provImpl) newThread(pt *rqprov.Thread) threadImpl {
	return &provThread{s: p.s, t: pt}
}

type provThread struct {
	s provSet
	t *rqprov.Thread
}

func (p *provThread) insert(key, value int64) bool     { return p.s.Insert(p.t, key, value) }
func (p *provThread) remove(key int64) bool            { return p.s.Delete(p.t, key) }
func (p *provThread) contains(key int64) (int64, bool) { return p.s.Contains(p.t, key) }
func (p *provThread) rangeQuery(low, high int64) []KV  { return p.s.RangeQuery(p.t, low, high) }

type rluListImpl struct{ l *rlulist.List }

func (r rluListImpl) newThread(*rqprov.Thread) threadImpl {
	return rluListThread{t: r.l.Register()}
}

type rluListThread struct{ t *rlulist.Thread }

func (r rluListThread) insert(key, value int64) bool     { return r.t.Insert(key, value) }
func (r rluListThread) remove(key int64) bool            { return r.t.Delete(key) }
func (r rluListThread) contains(key int64) (int64, bool) { return r.t.Contains(key) }
func (r rluListThread) rangeQuery(low, high int64) []KV  { return r.t.RangeQuery(low, high) }

type rluCitrusImpl struct{ t *rlucitrus.Tree }

func (r rluCitrusImpl) newThread(*rqprov.Thread) threadImpl {
	return rluCitrusThread{t: r.t.Register()}
}

type rluCitrusThread struct{ t *rlucitrus.Thread }

func (r rluCitrusThread) insert(key, value int64) bool     { return r.t.Insert(key, value) }
func (r rluCitrusThread) remove(key int64) bool            { return r.t.Delete(key) }
func (r rluCitrusThread) contains(key int64) (int64, bool) { return r.t.Contains(key) }
func (r rluCitrusThread) rangeQuery(low, high int64) []KV  { return r.t.RangeQuery(low, high) }
