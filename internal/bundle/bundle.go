// Package bundle implements the bundled-references range-query technique
// (Nelson-Slivon, Hassan and Palmieri, "Bundling: ...", arXiv 2012.15438 /
// 2201.00874) behind the same timestamp clock the EBR provider uses: every
// bottom-level list link carries a "bundle" — a timestamp-ordered history of
// the link's targets — and a range query at timestamp ts reconstructs the
// set as of ts by dereferencing, per link, the newest bundle entry with
// entry.ts < ts. No announcement scan and no limbo sweep: the query's cost
// is independent of concurrent update churn, while every update pays one
// bundle-entry prepend (two for an insert) on top of the pointer writes.
//
// # Linearization protocol
//
// Updates serialize per link under the link owner's lock and linearize at a
// single read of the shared clock:
//
//	raw pointer write(s)            (point-op linearization)
//	prepend PENDING entry (ts = 0)  (at most one per bundle, at its head)
//	v := clock.Load()
//	stamp entry ts = v              (insert: the new node's own seed entry
//	                                 is stamped before the predecessor's,
//	                                 both with the same v)
//	publish itime/dtime = v; record the update
//
// A query whose timestamp was installed before v's read satisfies
// ts <= v and must not see the update (the validator's strict ts_entry < ts
// rule); one installed after sees the stamped entry. A reader that finds a
// pending entry must wait (spin + yield): the entry's eventual stamp may be
// below the reader's timestamp. Pending entries resolve in a handful of
// instructions — there are no loops, allocations or faults between prepend
// and stamp.
//
// # Reclamation
//
// Node memory reuses the epoch machinery wholesale (an rqprov ModeUnsafe
// substrate provides the domain, the limbo limits and the backpressure
// ladder). Bundle entries are plain GC'd structs pruned against the oldest
// timestamp any active range query may still dereference: each query
// publishes a pessimistic floor (a clock read taken before it acquires its
// timestamp) in a per-thread slot, and gcBelow(min) keeps, per bundle, the
// newest stamped entry strictly below min — the entry a query at exactly
// min resolves to — truncating everything older. Updaters prune inline
// (under the link lock they already hold); CollectGarbage runs the same
// pass over every link for background or test use.
package bundle

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"ebrrq/internal/epoch"
	"ebrrq/internal/fault"
	"ebrrq/internal/obs"
	"ebrrq/internal/rqprov"
	"ebrrq/internal/trace"
)

// poolCap bounds each per-thread node free pool of the two structures (the
// skip list keeps one pool per height class).
const poolCap = 4096

// entry is one link version: next was the link's target from [ts, ts of the
// entry above). ts == 0 marks a pending entry whose stamp is in flight.
type entry struct {
	ts    atomic.Uint64
	next  unsafe.Pointer // immutable after creation
	older atomic.Pointer[entry]
}

// bundle is a per-link version history, newest first, ts non-increasing
// toward older entries (equal timestamps are legal: two updates of one link
// may both read the clock between two query advances; the newer entry wins,
// matching the final state of the pair). Prepends and truncations happen
// only under the link owner's lock; reads are lock-free.
type bundle struct {
	head atomic.Pointer[entry]
}

// prepend pushes a pending entry for next. Caller holds the link lock.
func (b *bundle) prepend(next unsafe.Pointer) *entry {
	e := &entry{next: next}
	e.older.Store(b.head.Load())
	b.head.Store(e)
	return e
}

// seed installs the bundle's first entry already stamped (sentinel setup
// and node initialization, before the node is reachable).
func (b *bundle) seed(ts uint64, next unsafe.Pointer) {
	e := &entry{next: next}
	e.ts.Store(ts)
	b.head.Store(e)
}

// reset clears a recycled node's bundle before reuse.
func (b *bundle) reset() { b.head.Store(nil) }

// len walks the bundle (racy; statistics and tests).
func (b *bundle) len() int {
	n := 0
	for e := b.head.Load(); e != nil; e = e.older.Load() {
		n++
	}
	return n
}

// gcBelow keeps the newest stamped entry with ts < min and truncates the
// strictly older tail, returning how many entries were cut. Pending entries
// are skipped conservatively (their eventual stamp may be old, making them
// the boundary — keeping one extra entry is always safe). Caller holds the
// link lock, so truncations never race each other or a prepend; concurrent
// readers at ts >= min resolve at the boundary entry or newer.
func (b *bundle) gcBelow(min uint64) int {
	e := b.head.Load()
	for e != nil {
		if ts := e.ts.Load(); ts != 0 && ts < min {
			break
		}
		e = e.older.Load()
	}
	if e == nil {
		return 0
	}
	tail := e.older.Swap(nil)
	n := 0
	for ; tail != nil; tail = tail.older.Load() {
		n++
	}
	return n
}

// Config configures a bundle Provider. The zero value of every field but
// MaxThreads is usable.
type Config struct {
	// MaxThreads bounds concurrently registered threads. Required.
	MaxThreads int
	// Recorder, if non-nil, receives every timestamped update.
	Recorder rqprov.Recorder
	// Clock is the timestamp source; nil allocates a private SharedClock.
	Clock rqprov.TimestampSource
	// Trace attaches the flight recorder (per-thread rings, as rqprov).
	Trace      *trace.Recorder
	TraceLabel string
	// LimboSoftLimit / LimboHardLimit / PressureWait bound unreclaimed
	// node memory exactly as in rqprov.Config: at the hard limit
	// AdmitUpdate sheds writes with ErrMemoryPressure.
	LimboSoftLimit int64
	LimboHardLimit int64
	PressureWait   time.Duration
}

// Provider owns the technique-wide state: the epoch substrate (node
// reclamation, backpressure, health), the clock, the per-thread active-
// timestamp floors bundle GC prunes against, and the metrics.
type Provider struct {
	sub   *rqprov.Provider // ModeUnsafe substrate: epoch domain + backpressure
	clock rqprov.TimestampSource
	word  *atomic.Uint64
	rec   rqprov.Recorder

	// active[i] is thread i's published floor: a clock value taken before
	// the thread acquired its current range-query timestamp (so floor <=
	// ts), or 0 when no query (and no cross-shard pin) is active. Bundle
	// GC prunes below the minimum floor.
	active []activeSlot

	entriesLive atomic.Int64 // prepends+seeds minus pruned (gauge)

	met *metrics

	gcAll func(min uint64) int // structure-registered full GC sweep
}

type activeSlot struct {
	v atomic.Uint64
	_ [56]byte // pad: scanned by GC, written on every RQ begin/end
}

type metrics struct {
	entries      *obs.Counter // ebrrq_bundle_entries_total
	pruned       *obs.Counter // ebrrq_bundle_pruned_total
	gcPasses     *obs.Counter // ebrrq_bundle_gc_total
	pendingWaits *obs.Counter // ebrrq_bundle_pending_waits_total
	rqs          *obs.Counter // ebrrq_bundle_rq_total
}

// New creates a provider. The epoch domain is reachable via Domain for
// watchdogs and limits; structures attach their free-func to it.
func New(cfg Config) *Provider {
	clock := cfg.Clock
	if clock == nil {
		clock = rqprov.NewSharedClock()
	}
	sub := rqprov.New(rqprov.Config{
		MaxThreads:     cfg.MaxThreads,
		Mode:           rqprov.ModeUnsafe,
		LimboSorted:    true, // deleters retire their own victims in dtime order
		Clock:          clock,
		Trace:          cfg.Trace,
		TraceLabel:     cfg.TraceLabel,
		LimboSoftLimit: cfg.LimboSoftLimit,
		LimboHardLimit: cfg.LimboHardLimit,
		PressureWait:   cfg.PressureWait,
	})
	return &Provider{
		sub:    sub,
		clock:  clock,
		word:   clock.Word(),
		rec:    cfg.Recorder,
		active: make([]activeSlot, cfg.MaxThreads),
	}
}

// EnableMetrics registers the provider's and the epoch domain's metrics
// plus the bundle-specific series with reg. Call before registering
// threads.
func (p *Provider) EnableMetrics(reg *obs.Registry) {
	p.sub.EnableMetrics(reg)
	p.met = &metrics{
		entries: reg.Counter("ebrrq_bundle_entries_total",
			"bundle entries created (seeds and prepends)"),
		pruned: reg.Counter("ebrrq_bundle_pruned_total",
			"bundle entries reclaimed by GC"),
		gcPasses: reg.Counter("ebrrq_bundle_gc_total",
			"bundle GC passes (inline and full sweeps)"),
		pendingWaits: reg.Counter("ebrrq_bundle_pending_waits_total",
			"range-query waits on a pending (unstamped) bundle entry"),
		rqs: reg.Counter("ebrrq_bundle_rq_total",
			"range queries answered from bundles"),
	}
	reg.GaugeFunc("ebrrq_bundle_entries_live",
		"bundle entries currently retained (created minus pruned)",
		func() int64 { return p.entriesLive.Load() })
}

// Health returns the substrate's epoch health check (hard-limit critical,
// stall/neutralization/soft-limit degraded).
func (p *Provider) Health() obs.HealthCheck { return p.sub.Health() }

// Domain returns the epoch domain backing node reclamation.
func (p *Provider) Domain() *epoch.Domain { return p.sub.Domain() }

// Clock returns the timestamp source.
func (p *Provider) Clock() rqprov.TimestampSource { return p.clock }

// MaxThreads returns the registration bound.
func (p *Provider) MaxThreads() int { return len(p.active) }

// EntriesLive returns the approximate number of retained bundle entries.
func (p *Provider) EntriesLive() int64 { return p.entriesLive.Load() }

// SetGCFunc registers the structure's full GC sweep (walk every link,
// gcBelow each bundle); CollectGarbage calls it. Must be set before use
// (each structure constructor registers itself).
func (p *Provider) SetGCFunc(f func(min uint64) int) { p.gcAll = f }

// CollectGarbage runs one full bundle-GC sweep at the current reclamation
// floor and returns how many entries it pruned. Safe to call from any
// goroutine (a background ticker, a test); concurrent sweeps serialize per
// link on the link locks.
func (p *Provider) CollectGarbage() int {
	if p.gcAll == nil {
		return 0
	}
	n := p.gcAll(p.MinActiveTS())
	if n > 0 {
		p.entriesLive.Add(int64(-n))
	}
	if p.met != nil {
		p.met.gcPasses.Add(0, 1)
		p.met.pruned.Add(0, uint64(n))
	}
	return n
}

// MinActiveTS returns the bundle reclamation floor: the minimum of the clock
// and every published active-query floor. The clock is read before the
// slots are scanned: a slot the scan misses was published after that read,
// and floors are clock reads taken before their queries' timestamps — so
// the missed query has ts at or above the returned value, and the
// boundary-keeping gcBelow retains the entry it resolves to. (Reading the
// clock last would let a query begin, and later queries advance the clock
// past its timestamp, between the scan and the read.)
func (p *Provider) MinActiveTS() uint64 {
	min := p.word.Load()
	fault.Inject("bundle.gc.floorscan")
	for i := range p.active {
		if v := p.active[i].v.Load(); v != 0 && v < min {
			min = v
		}
	}
	return min
}

// Thread is a per-goroutine provider handle (single-goroutine, like
// rqprov.Thread). Structure operations bracket themselves with
// StartOp/EndOp for epoch protection.
type Thread struct {
	p   *Provider
	sub *rqprov.Thread
	id  int
	tr  *trace.Ring

	// pinnedTS, when nonzero, is the timestamp the next range query must
	// linearize at (the shard router's single-timestamp contract);
	// single-use, cleared by Abort and Deregister.
	pinnedTS uint64
	// pinDepth counts PinEpoch nesting: while pinned, the thread's floor
	// stays published even between range queries, so a cross-shard query
	// that acquired its timestamp after the pin can still dereference
	// every version it needs on every shard.
	pinDepth int
	rqActive bool

	// floorCache amortizes MinActiveTS over update operations; refreshed
	// every floorEvery updates (staleness is safe: floors only rise, so a
	// stale cache prunes less).
	floorCache uint64
	floorAge   int

	lastRQTS  uint64
	result    []epoch.KV
	resultHWM int
}

// floorEvery is the update-side refresh period of the GC floor cache: one
// atomic scan of the active slots every 32 updates keeps inline pruning
// within a constant factor of the true floor without putting the scan on
// every critical section.
const floorEvery = 32

// Register allocates a thread handle, panicking when every slot is held.
func (p *Provider) Register() *Thread {
	t, err := p.TryRegister()
	if err != nil {
		panic("bundle: too many threads registered")
	}
	return t
}

// TryRegister allocates a thread handle, reusing slots released by
// Deregister; returns rqprov.ErrTooManyThreads when none is free.
func (p *Provider) TryRegister() (*Thread, error) {
	sub, err := p.sub.TryRegister()
	if err != nil {
		return nil, err
	}
	return &Thread{p: p, sub: sub, id: sub.ID(), tr: sub.TraceRing()}, nil
}

// ID returns the thread's registration index.
func (t *Thread) ID() int { return t.id }

// Provider returns the owning provider.
func (t *Thread) Provider() *Provider { return t.p }

// TraceRing returns the thread's flight-recorder ring (nil untraced).
func (t *Thread) TraceRing() *trace.Ring { return t.tr }

// StartOp / EndOp bracket a structure operation (epoch announcement).
func (t *Thread) StartOp() { t.sub.StartOp() }
func (t *Thread) EndOp()   { t.sub.EndOp() }

// AdmitUpdate is the backpressure gate; see rqprov.Thread.AdmitUpdate.
func (t *Thread) AdmitUpdate() error { return t.sub.AdmitUpdate() }

// Retire hands a node to epoch reclamation (call inside StartOp/EndOp).
func (t *Thread) Retire(n *epoch.Node) { t.sub.Retire(n) }

// PoolHit / PoolMiss count node-pool recycling.
func (t *Thread) PoolHit()  { t.sub.PoolHit() }
func (t *Thread) PoolMiss() { t.sub.PoolMiss() }

// LastRQTS returns the most recent range query's timestamp.
func (t *Thread) LastRQTS() uint64 { return t.lastRQTS }

// PinEpoch enters the cross-shard retention bracket: the epoch pin keeps
// every retired node, and the published floor keeps every bundle version,
// that a query timestamp acquired after this call may need. Nests.
func (t *Thread) PinEpoch() {
	t.sub.PinEpoch()
	if t.pinDepth == 0 && !t.rqActive {
		t.p.active[t.id].v.Store(t.p.word.Load())
	}
	t.pinDepth++
}

// UnpinEpoch leaves the bracket; idempotent at depth zero.
func (t *Thread) UnpinEpoch() {
	if t.pinDepth > 0 {
		t.pinDepth--
		if t.pinDepth == 0 && !t.rqActive {
			t.p.active[t.id].v.Store(0)
		}
	}
	t.sub.UnpinEpoch()
}

// PinTimestamp forces the next range query to linearize at ts
// (single-use). The caller must already hold PinEpoch, which published
// this thread's floor before ts was taken from the clock.
func (t *Thread) PinTimestamp(ts uint64) { t.pinnedTS = ts }

// Abort clears in-flight state after a panic unwound an operation; the
// thread remains registered and usable.
func (t *Thread) Abort() {
	t.pinnedTS = 0
	t.pinDepth = 0
	t.rqActive = false
	t.p.active[t.id].v.Store(0)
	t.sub.Abort()
}

// Deregister releases the slot permanently (idempotent).
func (t *Thread) Deregister() {
	t.pinnedTS = 0
	t.pinDepth = 0
	t.rqActive = false
	t.p.active[t.id].v.Store(0)
	t.sub.Deregister()
}

// record reports a linearized update to the validation recorder.
func (t *Thread) record(ts uint64, ins, del *epoch.Node) {
	if t.p.rec == nil {
		return
	}
	var inodes, dnodes []*epoch.Node
	if ins != nil {
		inodes = []*epoch.Node{ins}
	}
	if del != nil {
		dnodes = []*epoch.Node{del}
	}
	t.p.rec.RecordUpdate(t.id, ts, inodes, dnodes)
}

// stamp1 linearizes a delete: one clock read stamps the predecessor's new
// entry. Returns the linearization timestamp.
func (t *Thread) stamp1(e *entry) uint64 {
	v := t.p.word.Load()
	e.ts.Store(v)
	t.countEntries(1)
	return v
}

// stamp2 linearizes an insert: one clock read stamps the new node's seed
// entry FIRST, then the predecessor's entry — a reader that resolved the
// predecessor's entry therefore always finds the node's own bundle
// stamped. Both entries carry the same timestamp.
func (t *Thread) stamp2(seed, pred *entry) uint64 {
	v := t.p.word.Load()
	seed.ts.Store(v)
	pred.ts.Store(v)
	t.countEntries(2)
	return v
}

func (t *Thread) countEntries(n int) {
	t.p.entriesLive.Add(int64(n))
	if m := t.p.met; m != nil {
		m.entries.Add(t.id, uint64(n))
	}
}

// gcFloor returns the cached reclamation floor, refreshing it every
// floorEvery updates.
func (t *Thread) gcFloor() uint64 {
	t.floorAge++
	if t.floorCache == 0 || t.floorAge >= floorEvery {
		t.floorAge = 0
		t.floorCache = t.p.MinActiveTS()
	}
	return t.floorCache
}

// gcInline prunes one bundle at the cached floor. Caller holds the link
// lock.
func (t *Thread) gcInline(b *bundle) {
	n := b.gcBelow(t.gcFloor())
	if n == 0 {
		return
	}
	t.p.entriesLive.Add(int64(-n))
	if m := t.p.met; m != nil {
		m.gcPasses.Inc(t.id)
		m.pruned.Add(t.id, uint64(n))
	}
	if t.tr != nil {
		t.tr.Emit(trace.EvBundleGC, t.floorCache, uint64(n))
	}
}

// rqBegin publishes the floor and acquires the query's linearization
// timestamp (the pinned one, if the shard router set it). Call inside
// StartOp/EndOp.
func (t *Thread) rqBegin(low int64) uint64 {
	if t.pinDepth == 0 {
		t.p.active[t.id].v.Store(t.p.word.Load())
	}
	ts := t.pinnedTS
	if ts != 0 {
		t.pinnedTS = 0
		if t.tr != nil {
			t.tr.Emit(trace.EvTSPinned, ts, 0)
		}
	} else {
		var advanced bool
		ts, advanced = t.p.clock.AdvanceOrAdopt()
		if t.tr != nil {
			if advanced {
				t.tr.Emit(trace.EvTSAdvance, ts, 0)
			} else {
				t.tr.Emit(trace.EvTSAdopt, ts, 0)
			}
		}
	}
	t.rqActive = true
	t.lastRQTS = ts
	if t.tr != nil {
		t.tr.Emit(trace.EvBundleEnter, ts, uint64(low))
	}
	return ts
}

// rqEnd withdraws the floor and stores the reusable result buffer.
func (t *Thread) rqEnd(res []epoch.KV) []epoch.KV {
	t.rqActive = false
	if t.pinDepth == 0 {
		t.p.active[t.id].v.Store(0)
	}
	t.result = res
	if len(res) > t.resultHWM {
		t.resultHWM = len(res)
	}
	if m := t.p.met; m != nil {
		m.rqs.Inc(t.id)
	}
	return res
}

// resultBuf returns the empty reusable result buffer, restoring its
// steady-state capacity after a drop.
func (t *Thread) resultBuf() []epoch.KV {
	if cap(t.result) < t.resultHWM {
		t.result = make([]epoch.KV, 0, t.resultHWM)
	}
	return t.result[:0]
}

// deref resolves a link as of ts: the target of the newest entry with
// entry.ts < ts. A pending entry is waited out — its eventual stamp may be
// below ts (see the package comment).
func (t *Thread) deref(b *bundle, ts uint64) unsafe.Pointer {
	e := b.head.Load()
	for e != nil {
		ets := e.ts.Load()
		if ets == 0 {
			if m := t.p.met; m != nil {
				m.pendingWaits.Inc(t.id)
			}
			for ets == 0 {
				runtime.Gosched()
				ets = e.ts.Load()
			}
		}
		if ets < ts {
			return e.next
		}
		e = e.older.Load()
	}
	return nil
}
