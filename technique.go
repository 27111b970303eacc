package ebrrq

import (
	"fmt"

	"ebrrq/internal/ds/abtree"
	"ebrrq/internal/ds/citrus"
	"ebrrq/internal/ds/lazylist"
	"ebrrq/internal/ds/lfbst"
	"ebrrq/internal/ds/lflist"
	"ebrrq/internal/ds/rlucitrus"
	"ebrrq/internal/ds/rlulist"
	"ebrrq/internal/ds/skiplist"
	"ebrrq/internal/epoch"
	"ebrrq/internal/obs"
	"ebrrq/internal/rqprov"
	"ebrrq/internal/trace"
)

// Technique selects the range-query algorithm family powering a Set: how
// threads register with the structure, how updates linearize against the
// shared timestamp, and how a range query reconstructs the set's state at
// its linearization timestamp. Two techniques are provided:
//
//   - EBR (the default): the paper's approach — range queries sweep the
//     announcements and epoch limbo lists to recover concurrently deleted
//     nodes. Cheap updates, RQ cost proportional to the churn.
//   - Bundle: bundled references (Nelson-Slivon et al., arXiv 2012.15438) —
//     every list link keeps a timestamp-ordered history ("bundle"), so a
//     range query dereferences, per link, the newest entry below its
//     timestamp and never looks at limbo at all. Heavier updates, RQ cost
//     independent of churn.
//
// The interface is sealed (the unexported constructor): techniques ship
// with the package, because each one must uphold the linearizability
// contract the validator checks — updates stamp itime/dtime with the exact
// clock value at which they linearize, range queries return precisely the
// keys whose update history puts them in the set below the query's
// timestamp, and thread lifecycle (close/abort) never strands epoch
// protection. Select one via Options.Technique / ShardedOptions.Technique.
type Technique interface {
	// String returns the technique's short name ("ebr", "bundle"), used in
	// bench reports and error messages.
	String() string
	// Supports reports whether the technique can drive the given structure
	// in the given mode (the technique feasibility matrix; see the package
	// Supported function for the EBR matrix).
	Supports(d DataStructure, m Mode) bool
	// newSet builds the technique's per-Set state. reg is the set's labeled
	// metric registry (nil when metrics are off). Sealed: only in-package
	// techniques can implement Technique.
	newSet(d DataStructure, m Mode, maxThreads int, opt Options, reg *obs.Registry) (techSet, error)
}

// EBR is the default Technique: the paper's epoch-based range-query
// provider (internal/rqprov) plus its baselines — Unsafe, Snap-collector
// and RLU are modes of this technique.
var EBR Technique = ebrTechnique{}

// techSet is the per-Set contract every technique implements: thread
// registration plus the health/reclamation surfaces the Set accessors and
// the shard router need. Accessors may return nil when the technique lacks
// the facility (RLU has no epoch domain, no clock and no provider).
type techSet interface {
	// newThread registers one goroutine, returning its per-thread handle.
	newThread() (techThread, error)
	// domain returns the epoch reclamation domain backing the set's node
	// memory (watchdogs, limbo statistics), nil if there is none.
	domain() *epoch.Domain
	// clock returns the timestamp source updates and range queries
	// linearize on, nil for non-timestamp techniques.
	clock() rqprov.TimestampSource
	// health returns the technique's health check (obs.HealthCheck zero
	// value when the technique has nothing to report).
	health() obs.HealthCheck
	// htmAborts returns the cumulative emulated-HTM abort count.
	htmAborts() uint64
}

// techThread is the per-thread contract: the four set operations plus the
// lifecycle and cross-shard hooks the Thread wrappers and the shard router
// call. Implementations are single-goroutine like Thread itself.
type techThread interface {
	insert(key, value int64) bool
	remove(key int64) bool
	contains(key int64) (int64, bool)
	rangeQuery(low, high int64) []KV

	// id is the thread's registration index (-1 when the technique does
	// not number threads).
	id() int
	// close releases the thread's slot permanently (idempotent).
	close()
	// abort clears in-flight state after a panic unwound an operation;
	// the thread remains usable.
	abort()
	// admitUpdate runs the backpressure gate before an update; it returns
	// ErrMemoryPressure when the write must be shed.
	admitUpdate() error
	// traceRing returns the thread's flight-recorder ring (nil untraced).
	traceRing() *trace.Ring
	// lastRQTS returns the linearization timestamp of the thread's most
	// recent range query.
	lastRQTS() uint64
	// pinEpoch / unpinEpoch bracket a cross-shard range query: from the
	// pin on, the technique must retain every node (and every version)
	// a query at a timestamp taken after the pin may need.
	pinEpoch()
	unpinEpoch()
	// pinTimestamp forces the thread's next range query to linearize at
	// ts instead of taking its own timestamp (single-use).
	pinTimestamp(ts uint64)
}

// ---------------------------------------------------------------------------
// EBR technique (the paper's provider + baselines)
// ---------------------------------------------------------------------------

type ebrTechnique struct{}

func (ebrTechnique) String() string { return "ebr" }

// Supports implements the feasibility matrix of the paper's artifact
// (Table 1): the Snap-collector needs logical deletion (lists only); RLU
// requires a ground-up redesign and is provided for LazyList and Citrus.
func (ebrTechnique) Supports(d DataStructure, m Mode) bool {
	switch m {
	case Unsafe, Lock, HTM, LockFree:
		return d >= LFList && d <= BSlack
	case Snap:
		return d == LFList || d == LazyList || d == SkipList
	case RLU:
		return d == LazyList || d == Citrus
	}
	return false
}

func (ebrTechnique) newSet(d DataStructure, m Mode, maxThreads int, opt Options, reg *obs.Registry) (techSet, error) {
	if m == RLU {
		switch d {
		case LazyList:
			return &rluSet{impl: rluListImpl{l: rlulist.New(maxThreads)}}, nil
		case Citrus:
			return &rluSet{impl: rluCitrusImpl{t: rlucitrus.New(maxThreads)}}, nil
		}
	}
	mode := rqprov.ModeUnsafe
	switch m {
	case Lock:
		mode = rqprov.ModeLock
	case HTM:
		mode = rqprov.ModeHTM
	case LockFree:
		mode = rqprov.ModeLockFree
	}
	// Limbo lists are dtime-sorted unless helpers may physically unlink
	// other threads' victims (Harris list); see the package docs of each
	// structure.
	limboSorted := d != LFList
	maxAnnounce := 0 // provider default
	if d == BSlack {
		// One B-slack compression deletes a whole sibling group.
		maxAnnounce = 2*maxThreads + 8
		if min := 2*16 + 8; maxAnnounce < min {
			maxAnnounce = min
		}
	}
	prov := rqprov.New(rqprov.Config{
		MaxThreads:     maxThreads,
		Mode:           mode,
		LimboSorted:    limboSorted,
		MaxAnnounce:    maxAnnounce,
		Recorder:       opt.Recorder,
		Clock:          opt.Clock,
		WaitBudget:     opt.WaitBudget,
		Trace:          opt.Trace,
		TraceLabel:     opt.TraceLabel,
		LimboSoftLimit: opt.LimboSoftLimit,
		LimboHardLimit: opt.LimboHardLimit,
		PressureWait:   opt.PressureWait,
	})
	if reg != nil {
		prov.EnableMetrics(reg)
	}
	e := &ebrSet{prov: prov}
	switch d {
	case LFList:
		if m == Snap {
			e.impl = provImpl{s: lflist.NewSnap(prov)}
		} else {
			e.impl = provImpl{s: lflist.New(prov)}
		}
	case LazyList:
		if m == Snap {
			e.impl = provImpl{s: lazylist.NewSnap(prov)}
		} else {
			e.impl = provImpl{s: lazylist.New(prov)}
		}
	case SkipList:
		if m == Snap {
			e.impl = provImpl{s: skiplist.NewSnap(prov)}
		} else {
			e.impl = provImpl{s: skiplist.New(prov)}
		}
	case LFBST:
		e.impl = provImpl{s: lfbst.New(prov)}
	case Citrus:
		e.impl = provImpl{s: citrus.New(prov)}
	case ABTree:
		e.impl = provImpl{s: abtree.New(prov)}
	case BSlack:
		e.impl = provImpl{s: abtree.NewBSlack(prov)}
	default:
		return nil, fmt.Errorf("ebrrq: unknown data structure %v", d)
	}
	return e, nil
}

type ebrSet struct {
	prov *rqprov.Provider
	impl setImpl
}

func (e *ebrSet) newThread() (techThread, error) {
	pt, err := e.prov.TryRegister()
	if err != nil {
		return nil, err
	}
	return &ebrThread{impl: e.impl.newThread(pt), pt: pt}, nil
}

func (e *ebrSet) domain() *epoch.Domain         { return e.prov.Domain() }
func (e *ebrSet) clock() rqprov.TimestampSource { return e.prov.Clock() }
func (e *ebrSet) health() obs.HealthCheck       { return e.prov.Health() }
func (e *ebrSet) htmAborts() uint64             { return e.prov.HTMAborts() }

type ebrThread struct {
	impl threadImpl
	pt   *rqprov.Thread
}

func (t *ebrThread) insert(key, value int64) bool     { return t.impl.insert(key, value) }
func (t *ebrThread) remove(key int64) bool            { return t.impl.remove(key) }
func (t *ebrThread) contains(key int64) (int64, bool) { return t.impl.contains(key) }
func (t *ebrThread) rangeQuery(low, high int64) []KV  { return t.impl.rangeQuery(low, high) }

func (t *ebrThread) id() int                { return t.pt.ID() }
func (t *ebrThread) close()                 { t.pt.Deregister() }
func (t *ebrThread) abort()                 { t.pt.Abort() }
func (t *ebrThread) admitUpdate() error     { return t.pt.AdmitUpdate() }
func (t *ebrThread) traceRing() *trace.Ring { return t.pt.TraceRing() }
func (t *ebrThread) lastRQTS() uint64       { return t.pt.LastRQTS() }
func (t *ebrThread) pinEpoch()              { t.pt.PinEpoch() }
func (t *ebrThread) unpinEpoch()            { t.pt.UnpinEpoch() }
func (t *ebrThread) pinTimestamp(ts uint64) { t.pt.PinTimestamp(ts) }

// ---------------------------------------------------------------------------
// RLU baseline (no provider, no epoch domain, no clock)
// ---------------------------------------------------------------------------

type rluSet struct {
	impl setImpl
}

func (r *rluSet) newThread() (techThread, error) {
	return &rluThread{impl: r.impl.newThread(nil)}, nil
}

func (r *rluSet) domain() *epoch.Domain         { return nil }
func (r *rluSet) clock() rqprov.TimestampSource { return nil }
func (r *rluSet) health() obs.HealthCheck       { return obs.HealthCheck{} }
func (r *rluSet) htmAborts() uint64             { return 0 }

type rluThread struct {
	impl threadImpl
}

func (t *rluThread) insert(key, value int64) bool     { return t.impl.insert(key, value) }
func (t *rluThread) remove(key int64) bool            { return t.impl.remove(key) }
func (t *rluThread) contains(key int64) (int64, bool) { return t.impl.contains(key) }
func (t *rluThread) rangeQuery(low, high int64) []KV  { return t.impl.rangeQuery(low, high) }

func (t *rluThread) id() int                { return -1 }
func (t *rluThread) close()                 {}
func (t *rluThread) abort()                 {}
func (t *rluThread) admitUpdate() error     { return nil }
func (t *rluThread) traceRing() *trace.Ring { return nil }
func (t *rluThread) lastRQTS() uint64       { return 0 }
func (t *rluThread) pinEpoch()              {}
func (t *rluThread) unpinEpoch()            {}
func (t *rluThread) pinTimestamp(uint64)    {}
