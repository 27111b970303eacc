// Package rqprov implements the RQ Provider abstract data type of
// Arbel-Raviv and Brown, "Harnessing Epoch-based Reclamation for Efficient
// Range Queries" (PPoPP '18), §4.
//
// A provider adds linearizable range queries to any concurrent set that
// (1) has a traversal satisfying the COLLECT property and (2) linearizes
// every key-set change at a single write or CAS. All processes share one
// provider; range queries use it to collect the keys they return, and
// updates route their linearizing CAS through it so the provider can record
// insertion/deletion timestamps.
//
// The ADT operations are TraversalStart(low, high), Visit(node),
// TraversalEnd(), UpdateWrite(...) and UpdateCAS(...). Four implementations
// are selected by Mode:
//
//   - ModeLock: the lock-based provider of §4.3 (global fetch-and-add r/w
//     lock protecting the timestamp).
//   - ModeHTM: the HTM-based provider of §4.4, emulated with a distributed
//     reader-indicator lock (see package rwlock for the substitution
//     rationale — Go exposes no TSX intrinsics).
//   - ModeLockFree: the lock-free provider of §4.5 built on DCSS; range
//     queries never wait for itime/dtime, they help the announced DCSS and
//     learn timestamps from its descriptor payload.
//   - ModeUnsafe: the paper's non-linearizable baseline that simply
//     traverses the structure once and returns the keys it sees.
//
// A range query is linearized at its increment of the global timestamp TS.
// Each node records itime/dtime — the value of TS at the exact moment the
// update that inserted/deleted it linearized — so a query with timestamp ts
// returns exactly the keys of nodes with itime < ts && (dtime = ⊥ || dtime
// >= ts). Nodes missed by the traversal because of concurrent deletion are
// recovered from per-thread deletion announcements and from the EBR limbo
// lists (package epoch).
package rqprov

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"ebrrq/internal/dcss"
	"ebrrq/internal/epoch"
	"ebrrq/internal/fault"
	"ebrrq/internal/obs"
	"ebrrq/internal/rwlock"
	"ebrrq/internal/trace"
)

// Mode selects one of the provider implementations.
type Mode int

const (
	// ModeUnsafe is the non-linearizable single-traversal baseline.
	ModeUnsafe Mode = iota
	// ModeLock is the lock-based provider (§4.3).
	ModeLock
	// ModeHTM is the HTM-based provider (§4.4), emulated in software.
	ModeHTM
	// ModeLockFree is the DCSS-based lock-free provider (§4.5).
	ModeLockFree
)

// String returns the mode's display name as used in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeUnsafe:
		return "Unsafe"
	case ModeLock:
		return "Lock"
	case ModeHTM:
		return "HTM"
	case ModeLockFree:
		return "Lock-free"
	}
	return "?"
}

// Config configures a Provider.
type Config struct {
	// MaxThreads is the maximum number of registered threads.
	MaxThreads int
	// Mode selects the provider implementation.
	Mode Mode
	// MaxAnnounce is the per-thread deletion-announcement capacity: the
	// largest number of nodes a single update may delete. Group updates
	// ((a,b)-tree rebalancing) delete several nodes at once. Default 16.
	MaxAnnounce int
	// LimboSorted declares that each per-thread limbo list is sorted in
	// descending dtime order, enabling the early-exit optimization of
	// §4.3. It holds when nodes are always retired by the thread whose
	// update deleted them (lazy list, skip list, Citrus, (a,b)-tree) but
	// not when helpers may physically unlink other threads' victims
	// (Harris list, external BST).
	LimboSorted bool
	// Recorder, if non-nil, observes every successful timestamped update;
	// used by the validation harness. Must be safe for concurrent use.
	Recorder Recorder
	// SpinBudget is how many iterations a timestamp wait spins before
	// escalating to yielding the processor (and counting the escalation).
	// 0 selects the default of 128; negative means escalate immediately.
	SpinBudget int
	// WaitBudget, when positive, bounds the total iterations a timestamp
	// wait may take before giving up with a conservative answer: an
	// unresolved itime excludes the node (treated as inserted after the
	// query), an unresolved dtime includes it (treated as deleted after).
	// Both answers match what offline validation replays, because the
	// Recorder only observes updates whose timestamps were published — they
	// diverge only if the stalled updater later wakes and publishes. The
	// default 0 waits forever (always linearizable); enable a budget when
	// surviving a wedged updater matters more than that corner.
	WaitBudget int
	// Clock is the timestamp source the provider linearizes on. Nil gives
	// the provider a private clock (the classic single-structure setup);
	// pass one SharedClock to several providers to linearize them on one
	// clock (sharding, DESIGN.md §9). An injected clock is never reset —
	// providers may join it at any point in its history.
	Clock TimestampSource
	// Trace, if non-nil, attaches the flight recorder (DESIGN.md §10): each
	// registered thread gets a per-slot event ring, range queries record
	// per-phase timings, and the epoch domain's watchdog records stall
	// edges. Nil keeps the zero-cost disabled path.
	Trace *trace.Recorder
	// TraceLabel prefixes this provider's ring labels (e.g. "s3/" for shard
	// 3) so several providers can share one recorder.
	TraceLabel string
	// LimboSoftLimit / LimboHardLimit bound the EBR domain's unreclaimed
	// node count (limbo plus quarantine; 0 disables a limit). Crossing the
	// soft limit arms the watchdog's escalation ladder (forced advances →
	// orphan sweeps → neutralization, when a watchdog with Neutralize is
	// attached); at the hard limit AdmitUpdate rejects updates with
	// ErrMemoryPressure until reclamation catches up. Range queries and
	// lookups are never backpressured — they add nothing to limbo.
	LimboSoftLimit int64
	LimboHardLimit int64
	// PressureWait, when positive, makes AdmitUpdate wait up to this long
	// for the limbo count to fall below the hard limit before giving up
	// with ErrMemoryPressure. 0 fails fast.
	PressureWait time.Duration
}

// Recorder observes timestamped updates for offline validation.
type Recorder interface {
	// RecordUpdate is called after an update linearizes with timestamp ts,
	// inserting inodes and deleting dnodes. Called on the updater's
	// goroutine after the timestamps have been published. The two slices are
	// the provider's per-thread scratch, valid only for the duration of the
	// call: an implementation that wants the node lists later copies them.
	RecordUpdate(tid int, ts uint64, inodes, dnodes []*epoch.Node)
}

// Provider is a shared RQ provider plus the EBR domain it harnesses.
type Provider struct {
	mode  Mode
	clock TimestampSource
	// ts caches clock.Word() so the hot paths — timestamp reads, the
	// advance CAS, DCSS validation — cost a pointer load, not an interface
	// dispatch. With the default private clock this is exactly the old
	// per-provider timestamp word.
	ts *atomic.Uint64

	// tsFenced (Lock/HTM modes) is the largest published *fence*: a drain
	// of the update lock loads TS inside its exclusive section and publishes
	// the value here, certifying that every update with a smaller timestamp
	// has finished its linearizing CAS (updates that entered the lock before
	// the drain completed with it; updates after it read TS >= the fence).
	// A range query that loses the advance race adopts a fenced timestamp
	// newer than its TS read instead of acquiring the exclusive lock itself,
	// and a winner whose timestamp a concurrent drain already fenced skips
	// its own drain — one drain serves every advance that preceded its TS
	// read (see DESIGN.md §8).
	tsFenced atomic.Uint64

	// drainers counts range queries currently inside drainAndFence, so a
	// winner can tell "wait for the in-flight drain" apart from "no drain
	// coming; do it myself".
	drainers atomic.Int32

	lock rwlock.FetchAddRW // ModeLock
	dist *rwlock.DistRW    // ModeHTM

	dom          *epoch.Domain
	threads      []atomic.Pointer[Thread]
	registered   atomic.Int32
	maxAnnounce  int
	limboSorted  bool
	recorder     Recorder
	spinBudget   int
	waitBudget   int
	pressureWait time.Duration
	met          provMetrics

	// Flight recorder (nil when untraced). rings caches one ring per thread
	// slot so crash/revive churn (chaos tests) reuses rings instead of
	// exhausting the recorder's MaxRings budget; guarded by mu.
	trace      *trace.Recorder
	traceLabel string
	rings      []*trace.Ring

	mu      sync.Mutex // guards freeIDs and the register/deregister pairing
	freeIDs []int
}

// ErrTooManyThreads is returned by TryRegister when every slot is held by a
// live thread.
var ErrTooManyThreads = errors.New("rqprov: too many threads registered")

// ErrMemoryPressure is returned by AdmitUpdate when the domain's unreclaimed
// node count sits at the hard limbo limit (and, with PressureWait, stayed
// there for the whole wait): admitting the update would grow limbo past the
// configured memory bound. Retry later, or shed the write.
var ErrMemoryPressure = errors.New("rqprov: update rejected, limbo at hard memory limit")

// provMetrics holds the provider-layer observability handles. All fields
// are nil-safe no-ops until EnableMetrics wires them, so the default path
// pays one branch per (rare) event.
type provMetrics struct {
	rqs          *obs.Counter   // ebrrq_rq_total
	limboVisited *obs.Counter   // ebrrq_limbo_visited_total
	limboPerRQ   *obs.Histogram // ebrrq_limbo_visited_per_rq
	annScans     *obs.Counter   // ebrrq_announce_scans_total
	dcssRetries  *obs.Counter   // ebrrq_dcss_retries_total
	awaitISpins  *obs.Counter   // ebrrq_await_itime_spins_total
	awaitDSpins  *obs.Counter   // ebrrq_await_dtime_spins_total
	poolHits     *obs.Counter   // ebrrq_pool_hits_total
	poolMisses   *obs.Counter   // ebrrq_pool_misses_total
	descHits     *obs.Counter   // ebrrq_desc_pool_hits_total
	descMisses   *obs.Counter   // ebrrq_desc_pool_misses_total

	// backpressured counts updates AdmitUpdate rejected (after any
	// PressureWait) because limbo sat at the hard memory limit.
	backpressured *obs.Counter // ebrrq_updates_backpressured_total

	// RQ hot-path scaling family: tsShared counts range queries that
	// adopted a concurrently installed timestamp, tsAdvanced those that won
	// the advance CAS; bagsSkipped/bagsSwept count limbo bags elided by the
	// max-dtime fence vs. actually walked.
	tsShared    *obs.Counter // ebrrq_rq_ts_shared
	tsAdvanced  *obs.Counter // ebrrq_rq_ts_advanced
	tsPinned    *obs.Counter // ebrrq_rq_ts_pinned
	fenceShared *obs.Counter // ebrrq_rq_fence_shared
	bagsSkipped *obs.Counter // ebrrq_rq_bags_skipped
	bagsSwept   *obs.Counter // ebrrq_rq_bags_swept

	// Per-phase RQ time attribution, only fed while the flight recorder is
	// attached (the clock reads ride on the recorder's event stamps).
	// Distinct names, not a label: Snapshot.Counter sums across label sets.
	phTSWait   *obs.Counter // ebrrq_rq_ts_wait_ns_total
	phTraverse *obs.Counter // ebrrq_rq_traverse_ns_total
	phAnnounce *obs.Counter // ebrrq_rq_announce_ns_total
	phLimbo    *obs.Counter // ebrrq_rq_limbo_ns_total

	// Timestamp-wait escalation family: escalations count waits that
	// exhausted SpinBudget and began yielding; fallbacks count waits that
	// exhausted WaitBudget and resolved conservatively.
	escI *obs.Counter // ebrrq_await_escalations_total{kind="itime"}
	escD *obs.Counter // ebrrq_await_escalations_total{kind="dtime"}
	escA *obs.Counter // ebrrq_await_escalations_total{kind="announce"}
	fbI  *obs.Counter // ebrrq_await_fallbacks_total{kind="itime"}
	fbD  *obs.Counter // ebrrq_await_fallbacks_total{kind="dtime"}
	fbA  *obs.Counter // ebrrq_await_fallbacks_total{kind="announce"}
}

// EnableMetrics registers the provider's metrics (and those of its EBR
// domain and lock substrate) with reg and turns instrumentation on. Metric
// families are get-or-create, so providers created back to back (benchmark
// trials) accumulate into the same registry; call before the provider is
// shared between goroutines.
func (p *Provider) EnableMetrics(reg *obs.Registry) {
	p.met = provMetrics{
		rqs:          reg.Counter("ebrrq_rq_total", "range queries completed"),
		limboVisited: reg.Counter("ebrrq_limbo_visited_total", "limbo-list nodes visited by range queries"),
		limboPerRQ:   reg.Histogram("ebrrq_limbo_visited_per_rq", "limbo-list nodes visited per range query"),
		annScans:     reg.Counter("ebrrq_announce_scans_total", "deletion-announcement slots examined by range queries"),
		dcssRetries:  reg.Counter("ebrrq_dcss_retries_total", "DCSS retries after a timestamp change (lock-free provider)"),
		awaitISpins:  reg.Counter("ebrrq_await_itime_spins_total", "spin iterations waiting for insertion timestamps"),
		awaitDSpins:  reg.Counter("ebrrq_await_dtime_spins_total", "spin iterations waiting for deletion timestamps"),
		poolHits:     reg.Counter("ebrrq_pool_hits_total", "node allocations served from a free pool"),
		poolMisses:   reg.Counter("ebrrq_pool_misses_total", "node allocations that went to the heap"),
		descHits:     reg.Counter("ebrrq_desc_pool_hits_total", "DCSS descriptors recycled from the updater's epoch-gated pool (lock-free provider)"),
		descMisses:   reg.Counter("ebrrq_desc_pool_misses_total", "DCSS descriptors that went to the heap (lock-free provider)"),
		tsShared:     reg.Counter("ebrrq_rq_ts_shared", "range queries that adopted a concurrently installed timestamp"),
		tsAdvanced:   reg.Counter("ebrrq_rq_ts_advanced", "range queries that advanced the global timestamp themselves"),
		tsPinned:     reg.Counter("ebrrq_rq_ts_pinned", "per-shard traversals that ran at a router-pinned timestamp"),
		fenceShared:  reg.Counter("ebrrq_rq_fence_shared", "timestamp advances whose update-lock drain was satisfied by a concurrent drain"),
		bagsSkipped:  reg.Counter("ebrrq_rq_bags_skipped", "limbo bags skipped entirely by the max-dtime fence"),
		bagsSwept:    reg.Counter("ebrrq_rq_bags_swept", "limbo bags walked by range-query sweeps"),
		phTSWait:     reg.Counter("ebrrq_rq_ts_wait_ns_total", "ns range queries spent acquiring/fencing their timestamp (flight recorder attached)"),
		phTraverse:   reg.Counter("ebrrq_rq_traverse_ns_total", "ns range queries spent traversing the structure (flight recorder attached)"),
		phAnnounce:   reg.Counter("ebrrq_rq_announce_ns_total", "ns range queries spent on the announcement sweep (flight recorder attached)"),
		phLimbo:      reg.Counter("ebrrq_rq_limbo_ns_total", "ns range queries spent on the limbo sweep (flight recorder attached)"),
		backpressured: reg.Counter("ebrrq_updates_backpressured_total",
			"updates rejected with ErrMemoryPressure at the hard limbo limit"),
	}
	const escHelp = "timestamp waits that exhausted the spin budget and began yielding"
	const fbHelp = "timestamp waits that exhausted the wait budget and resolved conservatively"
	p.met.escI = reg.CounterL("ebrrq_await_escalations_total", `kind="itime"`, escHelp)
	p.met.escD = reg.CounterL("ebrrq_await_escalations_total", `kind="dtime"`, escHelp)
	p.met.escA = reg.CounterL("ebrrq_await_escalations_total", `kind="announce"`, escHelp)
	p.met.fbI = reg.CounterL("ebrrq_await_fallbacks_total", `kind="itime"`, fbHelp)
	p.met.fbD = reg.CounterL("ebrrq_await_fallbacks_total", `kind="dtime"`, fbHelp)
	p.met.fbA = reg.CounterL("ebrrq_await_fallbacks_total", `kind="announce"`, fbHelp)
	// The HTM abort series exists in every mode so exposition is stable;
	// only the emulated-HTM lock feeds it. The emulation has a single
	// abort cause: the fallback lock was held.
	aborts := reg.CounterL("ebrrq_htm_aborts_total", `cause="lock_held"`,
		"emulated-HTM transaction aborts by cause")
	if p.dist != nil {
		p.dist.AbortCounter = aborts
	}
	p.dom.SetMetrics(epoch.Metrics{
		Advances:  reg.Counter("ebrrq_epoch_advances_total", "global epoch advances"),
		Retires:   reg.Counter("ebrrq_epoch_retires_total", "nodes retired into limbo"),
		Rotations: reg.Counter("ebrrq_epoch_rotations_total", "limbo-bag rotations"),
		Reclaimed: reg.Counter("ebrrq_epoch_reclaimed_total", "nodes handed to the free function"),
		Neutralizations: reg.Counter("ebrrq_epoch_neutralizations_total",
			"stalled threads neutralized by the watchdog escalation ladder"),
		Quarantined: reg.Counter("ebrrq_epoch_quarantined_total",
			"reclaimable nodes diverted to quarantine while a neutralization was unacknowledged"),
		ForcedAdvances: reg.Counter("ebrrq_epoch_forced_advances_total",
			"epoch advances forced by the watchdog under limbo pressure"),
		ForcedSweeps: reg.Counter("ebrrq_epoch_forced_sweeps_total",
			"nodes reclaimed by watchdog-forced orphan sweeps"),
	})
	reg.GaugeFunc("ebrrq_limbo_len", "nodes currently in limbo across all threads",
		func() int64 { return int64(p.dom.LimboSize()) })
	reg.GaugeFunc("ebrrq_limbo_bytes", "approximate heap bytes held in limbo",
		func() int64 { return p.dom.LimboBytes() })
	reg.GaugeFunc("ebrrq_quarantined_nodes", "nodes held in the neutralization quarantine",
		func() int64 { return p.dom.QuarantinedNodes() })
	reg.GaugeFunc("ebrrq_quarantined_bytes", "approximate heap bytes held in the neutralization quarantine",
		func() int64 { return p.dom.QuarantinedBytes() })
	reg.GaugeFunc("ebrrq_unacked_neutralizations", "neutralized threads that have not yet acknowledged",
		func() int64 { return int64(p.dom.UnackedNeutralizations()) })
	reg.GaugeFunc("ebrrq_global_timestamp", "current range-query timestamp TS",
		func() int64 { return int64(p.ts.Load()) })
	reg.GaugeFunc("ebrrq_epoch_stalled_threads", "threads currently stalled mid-operation (watchdog view when attached)",
		func() int64 { return int64(len(p.dom.StalledThreads())) })
	reg.GaugeFunc("ebrrq_epoch_max_lag", "largest epoch lag across active threads",
		func() int64 { return int64(p.dom.MaxLag()) })
}

// Health returns a health check for obs.Serve's /healthz endpoint.
//
// Critical (503): the domain sits at its hard limbo limit — updates are
// being rejected with ErrMemoryPressure.
//
// Degraded (200 + "degraded" body): a thread is stalled mid-operation, a
// neutralization is awaiting acknowledgement, or the soft limbo limit is
// breached — the system still serves every operation, but the escalation
// ladder is working. Attach an epoch watchdog to the provider's domain for
// duration-based stall detection; without one the warn level only reports
// the (conservative) lag-based view.
func (p *Provider) Health() obs.HealthCheck {
	return obs.HealthCheck{
		Name: "epoch",
		Check: func() error {
			if p.dom.OverHardLimit() {
				_, hard := p.dom.LimboLimits()
				return fmt.Errorf("limbo at hard memory limit (%d unreclaimed nodes, limit %d): updates rejected",
					p.dom.BoundedNodes(), hard)
			}
			return nil
		},
		Warn: func() error {
			var probs []string
			if stalls := p.dom.StalledThreads(); len(stalls) > 0 {
				probs = append(probs, fmt.Sprintf("%d thread(s) stalled mid-operation, max epoch lag %d",
					len(stalls), p.dom.MaxLag()))
			}
			if ua := p.dom.UnackedNeutralizations(); ua > 0 {
				probs = append(probs, fmt.Sprintf("%d neutralization(s) unacknowledged, %d nodes quarantined",
					ua, p.dom.QuarantinedNodes()))
			}
			if p.dom.OverSoftLimit() {
				soft, _ := p.dom.LimboLimits()
				probs = append(probs, fmt.Sprintf("limbo over soft limit (%d unreclaimed nodes, limit %d)",
					p.dom.BoundedNodes(), soft))
			}
			if len(probs) > 0 {
				return errors.New(strings.Join(probs, "; "))
			}
			return nil
		},
	}
}

// New creates a provider (and its EBR domain) from cfg.
func New(cfg Config) *Provider {
	if cfg.MaxThreads <= 0 {
		panic("rqprov: MaxThreads must be positive")
	}
	if cfg.MaxAnnounce <= 0 {
		// Default: large enough for the biggest group update any of the
		// bundled structures performs — the external BST can splice a
		// chain of up to one pending deletion per thread (two nodes
		// each) in a single CAS.
		cfg.MaxAnnounce = 2*cfg.MaxThreads + 8
		if cfg.MaxAnnounce < 16 {
			cfg.MaxAnnounce = 16
		}
	}
	if cfg.SpinBudget == 0 {
		cfg.SpinBudget = 128
	} else if cfg.SpinBudget < 0 {
		cfg.SpinBudget = 0
	}
	if cfg.Clock == nil {
		cfg.Clock = NewSharedClock() // private clock, TS starts at 1 (0 is ⊥)
	}
	p := &Provider{
		mode:         cfg.Mode,
		clock:        cfg.Clock,
		ts:           cfg.Clock.Word(),
		dom:          epoch.NewDomain(cfg.MaxThreads),
		threads:      make([]atomic.Pointer[Thread], cfg.MaxThreads),
		maxAnnounce:  cfg.MaxAnnounce,
		limboSorted:  cfg.LimboSorted,
		recorder:     cfg.Recorder,
		spinBudget:   cfg.SpinBudget,
		waitBudget:   cfg.WaitBudget,
		pressureWait: cfg.PressureWait,
		trace:        cfg.Trace,
		traceLabel:   cfg.TraceLabel,
	}
	p.dom.SetLimboLimits(cfg.LimboSoftLimit, cfg.LimboHardLimit)
	if cfg.Trace != nil {
		p.rings = make([]*trace.Ring, cfg.MaxThreads)
		p.dom.SetTrace(cfg.Trace, cfg.TraceLabel)
	}
	p.tsFenced.Store(1)
	if cfg.Mode == ModeHTM {
		p.dist = rwlock.NewDistRW(cfg.MaxThreads)
	}
	return p
}

// Mode returns the provider's mode.
func (p *Provider) Mode() Mode { return p.mode }

// MaxThreads returns the provider's registration capacity.
func (p *Provider) MaxThreads() int { return len(p.threads) }

// MaxAnnounce returns the per-thread deletion-announcement capacity (the
// largest dnodes slice an update may pass to UpdateCAS).
func (p *Provider) MaxAnnounce() int { return p.maxAnnounce }

// Domain returns the provider's EBR domain (for configuring reclamation).
func (p *Provider) Domain() *epoch.Domain { return p.dom }

// Timestamp returns the current global timestamp (for tests and stats).
func (p *Provider) Timestamp() uint64 { return p.ts.Load() }

// Clock returns the timestamp source the provider linearizes on. The shard
// router uses it to pick one timestamp for a cross-shard range query.
func (p *Provider) Clock() TimestampSource { return p.clock }

// HTMAborts returns the emulated-HTM abort count (ModeHTM only).
func (p *Provider) HTMAborts() uint64 {
	if p.dist == nil {
		return 0
	}
	return p.dist.Aborts.Load()
}

// Register allocates a provider thread handle, panicking when the provider
// is full. It is a thin wrapper around TryRegister kept for existing
// callers; new code should prefer TryRegister. Each goroutine operating on
// the data structure must register exactly once and use its own handle.
func (p *Provider) Register() *Thread {
	t, err := p.TryRegister()
	if err != nil {
		panic("rqprov: too many threads registered")
	}
	return t
}

// TryRegister allocates a provider thread handle, reusing slots released by
// Deregister before extending the high-water mark. Safe for concurrent use;
// returns ErrTooManyThreads when every slot is held by a live thread.
func (p *Provider) TryRegister() (*Thread, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fresh := true
	var id int
	if n := len(p.freeIDs); n > 0 {
		id = p.freeIDs[n-1]
		p.freeIDs = p.freeIDs[:n-1]
		fresh = false
	} else {
		id = int(p.registered.Load())
		if id >= len(p.threads) {
			return nil, ErrTooManyThreads
		}
	}
	// The provider's free list moves in lockstep with the epoch domain's:
	// Deregister pushes onto both under p.mu, so popping here yields the
	// matching epoch slot.
	ep, err := p.dom.TryRegister()
	if err != nil {
		if !fresh {
			p.freeIDs = append(p.freeIDs, id)
		}
		return nil, err
	}
	if ep.ID() != id {
		panic("rqprov: thread id mismatch with epoch domain")
	}
	t := &Thread{
		prov:     p,
		ep:       ep,
		id:       id,
		announce: make([]atomic.Pointer[epoch.Node], p.maxAnnounce),
	}
	if p.trace != nil {
		if p.rings[id] == nil {
			p.rings[id] = p.trace.Ring(fmt.Sprintf("%st%d", p.traceLabel, id))
		}
		t.tr = p.rings[id]
		t.traced = true
		ep.SetTrace(t.tr)
	}
	p.threads[id].Store(t)
	if fresh {
		p.registered.Store(int32(id + 1))
	}
	return t, nil
}

// Thread is a per-goroutine provider handle. It embeds the EBR thread: data
// structure operations are bracketed by StartOp/EndOp.
type Thread struct {
	prov *Provider
	ep   *epoch.Thread
	id   int
	dead atomic.Bool

	// announce holds pointers to nodes this thread is about to delete
	// (single-writer, multi-reader), per §4.3. annCount over-approximates
	// the number of occupied slots: it is raised before any slot is filled
	// and cleared only after every slot is nil again, so a range query that
	// reads zero may skip the thread's slots entirely — an announcement it
	// misses that way was published after the query's scan, meaning the
	// deletion linearizes after the traversal finished and the traversal
	// itself saw the node.
	annCount atomic.Int32
	announce []atomic.Pointer[epoch.Node]

	// desc is the announced DCSS descriptor of the thread's in-flight
	// update (ModeLockFree), carrying the timestamp payload for helpers.
	// descs is where those descriptors come from and go back to.
	desc  atomic.Pointer[dcss.Descriptor]
	descs descPool

	// recI/recD are the node lists handed to the Recorder: copies, so the
	// interface call does not make every caller's inodes/dnodes escape.
	recI, recD []*epoch.Node

	// Range-query state (private to the owner).
	ts        uint64
	low, high int64
	result    []epoch.KV
	rqActive  bool

	// pinnedTS, when nonzero, is the linearization timestamp the next
	// TraversalStart must use instead of choosing one from the clock. The
	// shard router picks one timestamp from the shared clock and pins it
	// on every overlapping shard's thread so the whole cross-shard range
	// query linearizes at a single instant. Timestamps picked from a clock
	// are always >= 2 (clocks start at 1 and queries advance first), so 0
	// is a safe "no pin" sentinel. Single-use: consumed by TraversalStart,
	// cleared by Abort and Deregister.
	pinnedTS uint64

	lastUpdateTS uint64

	// Stats.
	limboVisitedLast  uint64
	limboVisitedTotal uint64
	rqCount           uint64
	bagsSkippedTotal  uint64
	bagsSweptTotal    uint64
	annScratch        []annRef

	// High-water marks of the reusable buffers: if a buffer was dropped
	// (Abort after a panic mid-append, say), the next range query restores
	// its observed steady-state capacity in one allocation instead of
	// re-growing through the append doubling schedule.
	resultHWM int
	annHWM    int

	// Flight recorder. traced is set when the provider carries a recorder —
	// phase timing runs even if tr is nil (ring budget exhausted) so the
	// phase counters stay truthful. tr is owner-written, owner-read.
	tr          *trace.Ring
	traced      bool
	phTravStart int64 // trace.Now() when the traversal phase began
}

type annRef struct {
	node *epoch.Node
	slot *atomic.Pointer[epoch.Node]
}

// ID returns the thread's registration index.
func (t *Thread) ID() int { return t.id }

// Provider returns the owning provider.
func (t *Thread) Provider() *Provider { return t.prov }

// Epoch returns the underlying EBR thread handle.
func (t *Thread) Epoch() *epoch.Thread { return t.ep }

// TraceRing returns the thread's flight-recorder ring (nil when untraced or
// past the recorder's ring budget). The set layer stamps op begin/end events
// on it so per-op spans and provider-phase events land in one ring.
func (t *Thread) TraceRing() *trace.Ring { return t.tr }

// StartOp begins a data-structure operation (EBR announcement).
func (t *Thread) StartOp() { t.ep.StartOp() }

// EndOp ends the current data-structure operation.
func (t *Thread) EndOp() { t.ep.EndOp() }

// PinEpoch enters an EBR critical section that tolerates nested
// StartOp/EndOp pairs; UnpinEpoch (or Abort/Deregister) leaves it. The shard
// router pins every overlapping shard before acquiring a cross-shard range
// query's timestamp, so each shard retains — for the whole multi-shard
// traversal — every limbo node the query may need (see epoch.Thread.Pin).
func (t *Thread) PinEpoch() { t.ep.Pin() }

// UnpinEpoch leaves a PinEpoch critical section. Idempotent.
func (t *Thread) UnpinEpoch() { t.ep.Unpin() }

// Abort clears the thread's provider-visible state — the announced DCSS
// descriptor, the deletion announcements, any range-query in progress — and
// force-ends its EBR operation. Panic-recovery wrappers call it after a
// panic unwound data-structure code mid-operation; the thread remains
// registered and usable. Clearing the announcements is a withdrawal: a
// concurrent range query that was waiting on one re-reads dtime and decides
// from whatever the aborted update actually published.
func (t *Thread) Abort() {
	t.desc.Store(nil)
	t.unannounceAll(len(t.announce))
	t.rqActive = false
	t.pinnedTS = 0
	t.ep.AbortOp()
}

// Deregister permanently releases the thread's slot: in-flight state is
// aborted as in Abort, the EBR slot quiesces (so a thread that died
// mid-operation stops pinning the global epoch and its limbo bags age out
// via the orphan sweep), and the slot id becomes reusable by a future
// TryRegister. Idempotent. Must be called by the owner goroutine or, after
// the owner died, by exactly one recovering goroutine.
func (t *Thread) Deregister() {
	if !t.dead.CompareAndSwap(false, true) {
		return
	}
	t.desc.Store(nil)
	t.unannounceAll(len(t.announce))
	t.rqActive = false
	t.pinnedTS = 0
	p := t.prov
	p.mu.Lock()
	t.ep.Deregister() // pushes the epoch slot; pair it with ours under p.mu
	p.freeIDs = append(p.freeIDs, t.id)
	p.mu.Unlock()
}

// LastUpdateTS returns the timestamp of this thread's most recent successful
// timestamped update (validation support).
func (t *Thread) LastUpdateTS() uint64 { return t.lastUpdateTS }

// LastRQTS returns the linearization timestamp of the most recent range
// query performed by this thread.
func (t *Thread) LastRQTS() uint64 { return t.ts }

// LimboVisitedLast returns how many limbo-list nodes the most recent range
// query visited (Experiment 1b statistic).
func (t *Thread) LimboVisitedLast() uint64 { return t.limboVisitedLast }

// LimboVisitedTotal returns the cumulative limbo-list nodes visited by this
// thread's range queries.
func (t *Thread) LimboVisitedTotal() uint64 { return t.limboVisitedTotal }

// RQCount returns the number of range queries this thread has completed.
func (t *Thread) RQCount() uint64 { return t.rqCount }

// BagsSkippedTotal returns how many limbo bags this thread's range queries
// skipped entirely via the max-dtime fence.
func (t *Thread) BagsSkippedTotal() uint64 { return t.bagsSkippedTotal }

// BagsSweptTotal returns how many limbo bags this thread's range queries
// actually walked.
func (t *Thread) BagsSweptTotal() uint64 { return t.bagsSweptTotal }

// ---------------------------------------------------------------------------
// Update path
// ---------------------------------------------------------------------------

// AdmitUpdate is the backpressure gate: call it before starting an update
// operation (Insert/Delete — not lookups or range queries, which add nothing
// to limbo). It returns ErrMemoryPressure while the domain's unreclaimed
// node count sits at the hard limbo limit; with Config.PressureWait it first
// waits — yielding, off any epoch announcement — up to that long for
// reclamation (or the watchdog's escalation ladder) to drain below the
// limit. Call BEFORE StartOp: a waiting thread must not pin the epoch, or it
// would hold back the very reclamation it is waiting for.
func (t *Thread) AdmitUpdate() error {
	d := t.prov.dom
	if !d.OverHardLimit() {
		return nil
	}
	// Self-service drain before rejecting: most of the limbo typically sits in
	// the bags of the very updaters being refused admission, and only the
	// owner may empty those — a rejected thread never reaches the StartOp
	// rotation, so without this the domain would pin at the hard limit even
	// after the watchdog unwedged the epoch.
	if t.ep.ReclaimStale() > 0 && !d.OverHardLimit() {
		return nil
	}
	if wait := t.prov.pressureWait; wait > 0 {
		deadline := time.Now().Add(wait)
		for {
			runtime.Gosched()
			t.ep.ReclaimStale()
			if !d.OverHardLimit() {
				return nil
			}
			if time.Now().After(deadline) {
				break
			}
		}
	}
	t.prov.met.backpressured.Inc(t.id)
	if t.tr != nil {
		_, hard := d.LimboLimits()
		t.tr.Emit(trace.EvBackpressure, uint64(d.BoundedNodes()), uint64(hard))
	}
	return ErrMemoryPressure
}

func (t *Thread) announceAll(dnodes []*epoch.Node) {
	if len(dnodes) > len(t.announce) {
		panic("rqprov: update deletes more nodes than MaxAnnounce")
	}
	if len(dnodes) == 0 {
		return
	}
	t.annCount.Store(int32(len(dnodes))) // count before slots: see annCount
	for i, d := range dnodes {
		t.announce[i].Store(d)
	}
}

func (t *Thread) unannounceAll(n int) {
	for i := 0; i < n; i++ {
		t.announce[i].Store(nil)
	}
	t.annCount.Store(0) // slots before count: see annCount
}

// UpdateCAS replaces the write/CAS at which an update that changes the key
// set linearizes (§4.1). slot must be read by all parties via dcss.Slot
// methods. inodes (dnodes) are the nodes inserted (deleted) by the update.
// If retireDeleted is true, successfully deleted nodes are retired to the
// EBR limbo list immediately (structures that physically delete at the
// linearization point); structures with separate logical deletion pass
// false and later call PhysicalDelete.
//
// On success the provider publishes itime on inodes and dtime on dnodes with
// the exact value TS held when the CAS took effect.
func (t *Thread) UpdateCAS(slot *dcss.Slot, old, new unsafe.Pointer, inodes, dnodes []*epoch.Node, retireDeleted bool) bool {
	p := t.prov
	if p.mode != ModeUnsafe {
		// Pre-linearization poison checkpoint: a thread that resumed after
		// being neutralized lost its epoch protection, so the nodes its
		// traversal found (old/new) can no longer be trusted — the update
		// must abort before it can linearize against them.
		t.ep.CheckNeutralized()
		t.announceAll(dnodes)
		fault.Inject("rqprov.update.announced")
	}
	switch p.mode {
	case ModeUnsafe:
		if !slot.CAS(old, new) {
			return false
		}
		if retireDeleted {
			for _, d := range dnodes {
				t.ep.Retire(d)
			}
		}
		return true

	case ModeLock:
		p.lock.AcquireShared()
		// In-section re-check: a thread that stalled at any point before the
		// lock and was neutralized while stalled must not linearize on
		// resume — its retires would land in bags below every concurrent
		// query's visibility floor. Release before panicking, or RQ drains
		// would wedge on our shared hold. (A poison landing between this
		// load and the CAS is the residual window DESIGN.md §11 documents.)
		if t.ep.Poisoned() {
			p.lock.ReleaseShared()
			panic(epoch.ErrNeutralized)
		}
		ts := p.ts.Load()
		ok := slot.CAS(old, new)
		p.lock.ReleaseShared()
		t.finishUpdate(ok, ts, inodes, dnodes, retireDeleted)
		return ok

	case ModeHTM:
		// Software emulation of: XBEGIN; abort if L exclusively held;
		// read TS; CAS; XEND. AcquireShared touches only this thread's
		// slot and validates the writer bit, retrying on "abort".
		p.dist.AcquireShared(t.id)
		if t.ep.Poisoned() { // same contract as the ModeLock re-check
			p.dist.ReleaseShared(t.id)
			panic(epoch.ErrNeutralized)
		}
		ts := p.ts.Load()
		ok := slot.CAS(old, new)
		p.dist.ReleaseShared(t.id)
		t.finishUpdate(ok, ts, inodes, dnodes, retireDeleted)
		return ok

	case ModeLockFree:
		for {
			t.ep.CheckNeutralized() // re-check per retry: TS waits can spin long
			ts := p.ts.Load()
			d := t.acquireDesc()
			d.A1, d.Exp1 = p.ts, ts
			d.S, d.Old, d.New = slot, old, new
			d.INodes = append(d.INodes, inodes...)
			d.DNodes = append(d.DNodes, dnodes...)
			t.desc.Store(d)
			fault.Inject("rqprov.update.desc")
			st := d.Exec()
			switch st {
			case dcss.Succeeded:
				t.finishUpdate(true, ts, inodes, dnodes, retireDeleted)
			case dcss.FailedValue:
				t.finishUpdate(false, 0, nil, dnodes, false)
			}
			// Every attempt ends by withdrawing its descriptor and takes a
			// different one if it retries: a helper may still hold this one,
			// so it is never re-armed in place. A panic above skips the
			// release and the descriptor goes to the garbage collector.
			t.desc.Store(nil)
			t.releaseDesc(d)
			if st != dcss.FailedA1 {
				return st == dcss.Succeeded
			}
			// FailedA1: TS changed under us; retry with a fresh read.
			p.met.dcssRetries.Inc(t.id)
			if t.tr != nil {
				t.tr.Emit(trace.EvDCSSRetry, ts, 0)
			}
		}
	}
	panic("rqprov: unknown mode")
}

// acquireDesc returns an Undecided descriptor with empty fields for the next
// DCSS attempt: one whose grace period has passed if the pool has it, a new
// one otherwise.
func (t *Thread) acquireDesc() *dcss.Descriptor {
	if d := t.descs.get(t.ep.CurrentEpoch(), t.prov.dom); d != nil {
		t.prov.met.descHits.Inc(t.id)
		return d
	}
	t.prov.met.descMisses.Inc(t.id)
	return new(dcss.Descriptor)
}

// releaseDesc returns a finished attempt's descriptor to the pool. It must be
// out of the slot (Exec returned) and out of t.desc. Outside an operation the
// local epoch says nothing about which readers are running, so the
// descriptor is dropped.
func (t *Thread) releaseDesc(d *dcss.Descriptor) {
	if t.ep.InOp() {
		t.descs.put(t.ep.CurrentEpoch(), d)
	}
}

// finishUpdate publishes timestamps, retires deleted nodes and clears the
// announcements after a (possibly failed) linearizing CAS.
func (t *Thread) finishUpdate(ok bool, ts uint64, inodes, dnodes []*epoch.Node, retireDeleted bool) {
	if ok {
		for _, n := range inodes {
			n.SetITime(ts)
		}
		for _, d := range dnodes {
			d.SetDTime(ts)
		}
		t.lastUpdateTS = ts
		// Record before Retire: Retire is a poison checkpoint, and if it
		// aborts the thread (residual neutralization window) the validator
		// must already know about the linearized update. Retire stays before
		// unannounceAll — the announcement covers the nodes until they are
		// findable in limbo.
		if r := t.prov.recorder; r != nil {
			t.recI = append(t.recI[:0], inodes...)
			t.recD = append(t.recD[:0], dnodes...)
			r.RecordUpdate(t.id, ts, t.recI, t.recD)
		}
		if retireDeleted {
			for _, d := range dnodes {
				t.ep.Retire(d)
			}
		}
	}
	t.unannounceAll(len(dnodes))
	fault.Inject("rqprov.update.finished")
}

// UpdateWrite replaces a linearizing *write* (as opposed to CAS): the new
// value is installed unconditionally. Used by lock-based structures whose
// linearization point is a store performed under a lock.
func (t *Thread) UpdateWrite(slot *dcss.Slot, new unsafe.Pointer, inodes, dnodes []*epoch.Node, retireDeleted bool) {
	for {
		old := slot.Load()
		if t.UpdateCAS(slot, old, new, inodes, dnodes, retireDeleted) {
			return
		}
	}
}

// PhysicalDelete supports structures with separate logical deletion (§4.3,
// "Supporting logical deletion"): the caller announces the nodes it is about
// to physically unlink, performs the unlink (which must not change the key
// set — the nodes are already logically deleted and carry dtime), retires
// the nodes it unlinked, and removes the announcements. unlink reports
// whether this thread performed the removal.
func (t *Thread) PhysicalDelete(dnodes []*epoch.Node, unlink func() bool) bool {
	if t.prov.mode == ModeUnsafe {
		ok := unlink()
		if ok {
			for _, d := range dnodes {
				t.ep.Retire(d)
			}
		}
		return ok
	}
	t.ep.CheckNeutralized() // same pre-linearization contract as UpdateCAS
	t.announceAll(dnodes)
	fault.Inject("rqprov.physdel.announced")
	ok := unlink()
	if ok {
		for _, d := range dnodes {
			t.ep.Retire(d)
		}
	}
	t.unannounceAll(len(dnodes))
	return ok
}

// Retire forwards to the EBR thread (for removals outside the update path).
func (t *Thread) Retire(n *epoch.Node) { t.ep.Retire(n) }

// PoolHit records a node allocation served from a per-thread free pool.
// Data structures call it from their alloc paths; a no-op until the
// provider's metrics are enabled.
func (t *Thread) PoolHit() { t.prov.met.poolHits.Inc(t.id) }

// PoolMiss records a node allocation that fell through to the heap.
func (t *Thread) PoolMiss() { t.prov.met.poolMisses.Inc(t.id) }

// ---------------------------------------------------------------------------
// Range-query path
// ---------------------------------------------------------------------------

// TraversalStart begins a range query over [low, high] and linearizes it.
//
// Timestamp sharing (DESIGN.md §8): instead of unconditionally incrementing
// TS — which serializes every range query on one cache line, and in Lock/HTM
// modes additionally on the exclusive update lock — the query reads TS = v
// and attempts a single CAS to v+1. The winner advances; every loser adopts
// the timestamp another query just installed rather than retrying, so N
// concurrent queries collapse into ~1 increment and legally share one
// linearization timestamp (no update can be ordered between them: an update
// that read TS < w finished its linearizing CAS before TS was fenced at w,
// and one that read TS >= w is excluded by the itime/dtime >= ts checks).
//
// In Lock/HTM modes a drain of the update lock (acquire+release exclusive,
// waiting out every update critical section in flight) certifies a fence:
// the TS value read inside the drained section is published in tsFenced,
// and every update with a smaller timestamp has completed its linearizing
// CAS. Drains coalesce — a winner whose advance preceded an in-flight
// drain's TS read is fenced by that drain and skips the exclusive lock,
// and adopters wait for any fence newer than their read — so N concurrent
// queries cost ~1 increment and ~1 drain. In lock-free mode DCSS already
// guarantees an update's CAS took effect while TS held its timestamp, so
// adopters simply re-read TS.
// A cross-shard range query instead *pins* its timestamp (PinTimestamp):
// the shard router performs one advance-or-adopt on the clock shared by
// every shard and hands the result to each overlapping shard's thread, so
// the per-mode work below reduces to the fence step — ensureFenced drains
// this provider's update lock (Lock/HTM), and lock-free mode needs nothing
// beyond the pin because DCSS validated the shared word (DESIGN.md §9).
func (t *Thread) TraversalStart(low, high int64) {
	if t.prov.mode != ModeUnsafe {
		// Pre-linearization poison checkpoint, mirroring UpdateCAS: a range
		// query resumed after neutralization must not acquire (or advance)
		// a timestamp — its epoch protection is gone and its traversal could
		// observe quarantined state it has no right to linearize against.
		t.ep.CheckNeutralized()
	}
	t.low, t.high = low, high
	if cap(t.result) < t.resultHWM {
		t.result = make([]epoch.KV, 0, t.resultHWM)
	}
	t.result = t.result[:0]
	t.rqActive = true
	p := t.prov
	var t0 int64
	if t.traced {
		t0 = trace.Now()
	}
	var ev trace.EventType // which timestamp event the switch decided on
	switch p.mode {
	case ModeUnsafe:
		t.ts = 0
		t.pinnedTS = 0
	case ModeLock, ModeHTM:
		if pin := t.pinnedTS; pin != 0 {
			t.pinnedTS = 0
			p.ensureFenced(t.id, pin)
			t.ts = pin
			p.met.tsPinned.Inc(t.id)
			ev = trace.EvTSPinned
			break
		}
		v := p.ts.Load()
		fault.Inject("rqprov.rq.tsadvance")
		if p.ts.CompareAndSwap(v, v+1) {
			p.ensureFenced(t.id, v+1)
			t.ts = v + 1
			p.met.tsAdvanced.Inc(t.id)
			ev = trace.EvTSAdvance
		} else {
			t.ts = p.adoptFenced(t.id, v)
			p.met.tsShared.Inc(t.id)
			ev = trace.EvTSAdopt
		}
	case ModeLockFree:
		if pin := t.pinnedTS; pin != 0 {
			t.pinnedTS = 0
			t.ts = pin
			p.met.tsPinned.Inc(t.id)
			ev = trace.EvTSPinned
			break
		}
		v := p.ts.Load()
		fault.Inject("rqprov.rq.tsadvance")
		if p.ts.CompareAndSwap(v, v+1) {
			t.ts = v + 1
			p.met.tsAdvanced.Inc(t.id)
			ev = trace.EvTSAdvance
		} else {
			// The CAS failed because another query installed v+1 (only
			// range queries write TS): adopt the newer value. Every update
			// with a timestamp below it linearized while TS held that
			// timestamp (DCSS validates TS at the linearizing CAS), hence
			// before this load — so it is visible to our traversal.
			t.ts = p.ts.Load()
			p.met.tsShared.Inc(t.id)
			ev = trace.EvTSAdopt
		}
	}
	if t.traced {
		now := trace.Now()
		t.phTravStart = now
		if ev != trace.EvNone {
			wait := uint64(now - t0)
			t.tr.EmitAt(ev, now, t.ts, wait)
			p.met.phTSWait.Add(t.id, wait)
		}
	}
	fault.Inject("rqprov.rq.started")
}

// PinTimestamp sets the linearization timestamp of this thread's next
// TraversalStart. ts must have been obtained from the provider's clock
// (Clock().AdvanceOrAdopt()) during the current query attempt — the shard
// router calls that once and pins the result on every overlapping shard.
// TraversalStart still performs the mode's fence work at ts, so every
// update below ts on this provider is visible to the traversal. The pin is
// single-use and cleared by Abort/Deregister; ts must be nonzero.
func (t *Thread) PinTimestamp(ts uint64) {
	if ts == 0 {
		panic("rqprov: PinTimestamp(0)")
	}
	t.pinnedTS = ts
}

// drainUpdates waits out every update critical section that began before the
// exclusive acquisition succeeds (Lock/HTM modes) and returns the TS value
// read while the lock was held. The returned value is a valid fence: updates
// that entered the lock before the drain completed with it, and updates that
// enter after the release read TS at or above the returned value.
func (p *Provider) drainUpdates() uint64 {
	if p.mode == ModeHTM {
		p.dist.AcquireExclusive()
		f := p.ts.Load()
		p.dist.ReleaseExclusive()
		return f
	}
	p.lock.AcquireExclusive()
	f := p.ts.Load()
	p.lock.ReleaseExclusive()
	return f
}

// drainAndFence performs one drain and publishes the fence it certifies.
func (p *Provider) drainAndFence() uint64 {
	p.drainers.Add(1)
	f := p.drainUpdates()
	maxStore(&p.tsFenced, f)
	p.drainers.Add(-1)
	return f
}

// ensureFenced makes the winner's freshly installed timestamp `need` fenced:
// every update with a smaller timestamp must have completed before the range
// query starts traversing. The fast path discovers that a concurrent drain
// already certified `need` (its in-lock TS read happened after our advance)
// and skips the exclusive lock entirely; otherwise the winner waits out an
// in-flight drain for a bounded number of yields before draining itself.
func (p *Provider) ensureFenced(tid int, need uint64) {
	if p.tsFenced.Load() >= need {
		p.met.fenceShared.Inc(tid)
		return
	}
	spin := p.spinBudget
	for i := 0; p.drainers.Load() > 0 && i <= spin+adoptYieldBudget; i++ {
		if p.tsFenced.Load() >= need {
			p.met.fenceShared.Inc(tid)
			return
		}
		if i >= spin {
			runtime.Gosched()
		}
	}
	if p.tsFenced.Load() >= need {
		p.met.fenceShared.Inc(tid)
		return
	}
	p.drainAndFence()
}

// adoptFenced returns the timestamp a losing range query adopts: the first
// fenced timestamp newer than v, its failed TS read. The common case is a
// short wait for the concurrent winner to finish its drain; if the winner
// stalls past the spin budget (and a grace period of yields), the adopter
// performs its own drain on whatever TS now holds, so a descheduled winner
// cannot wedge every other range query.
func (p *Provider) adoptFenced(tid int, v uint64) uint64 {
	spin := p.spinBudget
	for i := 0; i <= spin+adoptYieldBudget; i++ {
		if f := p.tsFenced.Load(); f > v {
			return f
		}
		if i >= spin {
			runtime.Gosched()
		}
	}
	// The winner is wedged between its CAS and its fence publication: drain
	// privately. The drain's in-lock TS read is > v (our CAS failed, so TS
	// is at least v+1), and it certifies every smaller timestamp.
	return p.drainAndFence()
}

// adoptYieldBudget bounds how many scheduler yields an adopter grants the
// winning range query to publish its fenced timestamp before draining
// privately. Yields, not spins: on oversubscribed hosts the winner needs the
// processor to finish its drain.
const adoptYieldBudget = 64

// maxStore raises *a to v if v is larger (monotone max; concurrent-safe).
func maxStore(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Visit is invoked by the data structure's traversal for every node it
// visits whose key range may intersect [low, high]; for structures without
// logical deletion.
func (t *Thread) Visit(n *epoch.Node) {
	t.VisitMaybeMarked(n, false)
}

// VisitMaybeMarked is Visit for structures with logical deletion: marked
// reports whether the node was observed logically deleted at visit time.
func (t *Thread) VisitMaybeMarked(n *epoch.Node, marked bool) {
	if t.prov.mode == ModeUnsafe {
		if !marked {
			t.addKeys(n)
		}
		return
	}
	itime := t.awaitITime(n)
	if itime >= t.ts {
		return // inserted after the RQ
	}
	if marked {
		// Logically deleted: determine whether before or after the RQ.
		dtime := t.awaitDTime(n)
		if dtime < t.ts {
			return
		}
	}
	t.addKeys(n)
}

// TraversalEnd completes the range query: it sweeps other threads' deletion
// announcements, then the EBR limbo lists, to recover keys whose nodes were
// deleted during the query and missed by the traversal; it returns the
// sorted, deduplicated result. The announcement sweep must precede the limbo
// sweep (§4.3): updaters announce before deleting and retire after, so a
// node deleted during the RQ is found in the structure, the announcements,
// or the limbo lists.
func (t *Thread) TraversalEnd() []epoch.KV {
	if !t.rqActive {
		panic("rqprov: TraversalEnd without TraversalStart")
	}
	t.rqActive = false
	// Phase clock: the traverse phase ran from the end of TraversalStart to
	// here; the announce and limbo phases are measured below as this
	// function moves through them.
	var phMark int64
	if t.traced {
		phMark = trace.Now()
		trav := uint64(phMark - t.phTravStart)
		t.tr.EmitAt(trace.EvTraverse, phMark, uint64(len(t.result)), trav)
		t.prov.met.phTraverse.Add(t.id, trav)
	}
	if t.prov.mode == ModeUnsafe {
		return t.finishResult()
	}

	// Collect pointers to all announcement slots first, then process.
	if cap(t.annScratch) < t.annHWM {
		t.annScratch = make([]annRef, 0, t.annHWM)
	}
	t.annScratch = t.annScratch[:0]
	p := t.prov
	nthreads := int(p.registered.Load())
	scanned := uint64(0)
	for i := 0; i < nthreads; i++ {
		u := p.threads[i].Load()
		if u == nil || u == t {
			continue
		}
		// One-load fast path past threads with no announcement up: a store
		// this skip races with was published after our scan, so its deletion
		// linearizes after our traversal ended (which therefore saw the
		// node). Slots are still scanned in full when the count is nonzero —
		// it is an over-approximation, never an index.
		if u.annCount.Load() == 0 {
			continue
		}
		scanned += uint64(len(u.announce))
		for s := range u.announce {
			slot := &u.announce[s]
			if n := slot.Load(); n != nil {
				t.annScratch = append(t.annScratch, annRef{node: n, slot: slot})
			}
		}
	}
	p.met.annScans.Add(t.id, scanned)
	fault.Inject("rqprov.rq.annsweep")
	for _, ar := range t.annScratch {
		t.tryAddFromAnnouncement(ar.node, ar.slot)
	}
	if len(t.annScratch) > t.annHWM {
		t.annHWM = len(t.annScratch)
	}
	// Drop the node references before truncating: a stale annRef beyond the
	// slice length would otherwise keep a recycled node (and its limbo
	// chain) live across range queries.
	clear(t.annScratch)
	t.annScratch = t.annScratch[:0]
	if t.traced {
		now := trace.Now()
		d := uint64(now - phMark)
		t.tr.EmitAt(trace.EvAnnScan, now, scanned, d)
		t.prov.met.phAnnounce.Add(t.id, d)
		phMark = now
	}

	fault.Inject("rqprov.rq.limbosweep")
	visited, skipped, swept := t.sweepLimbo(p.ts.Load())
	t.limboVisitedLast = visited
	t.limboVisitedTotal += visited
	t.bagsSkippedTotal += skipped
	t.bagsSweptTotal += swept
	t.rqCount++
	p.met.rqs.Inc(t.id)
	p.met.limboVisited.Add(t.id, visited)
	p.met.limboPerRQ.Observe(visited)
	p.met.bagsSkipped.Add(t.id, skipped)
	p.met.bagsSwept.Add(t.id, swept)
	if t.traced {
		now := trace.Now()
		d := uint64(now - phMark)
		t.tr.EmitAt(trace.EvLimboDone, now, visited, d)
		p.met.phLimbo.Add(t.id, d)
	}
	return t.finishResult()
}

// sweepLimbo recovers deleted-but-relevant keys from the EBR limbo bags:
// every node with itime < ts and dtime >= ts must enter the result even
// though the traversal may have missed it. Two prunings keep this sweep off
// the O(total limbo) path:
//
//   - Bag fence: a bag whose maxDTime fence is below the query timestamp
//     contains only nodes deleted before the query linearized — already
//     handled by the traversal — and is skipped without touching a node.
//     This covers the unsorted (!limboSorted) case, which previously always
//     full-scanned.
//   - Early exit (Optimization 1, §4.3): within a dtime-sorted bag, the
//     first node below the query timestamp ends the walk.
//
// Nodes with dtime > endTS (deleted after the sweep began) were either
// inserted after the RQ or already visited by the traversal (Optimization
// 2, §4.3) and are filtered without the await machinery.
func (t *Thread) sweepLimbo(endTS uint64) (visited, skipped, swept uint64) {
	sorted := t.prov.limboSorted
	it := t.ep.LimboBags()
	for head, fence, ok := it.Next(); ok; head, fence, ok = it.Next() {
		if fence < t.ts {
			skipped++
			continue
		}
		swept++
		bagStart := visited
		for n := head; n != nil; n = n.LimboNext() {
			visited++
			dtime := n.DTime()
			if dtime != 0 && dtime < t.ts {
				if sorted {
					break
				}
				continue
			}
			if dtime != 0 && dtime > endTS {
				continue
			}
			t.tryAddFromLimbo(n)
		}
		if t.tr != nil {
			t.tr.Emit(trace.EvLimboBag, visited-bagStart, fence)
		}
	}
	if t.tr != nil && skipped > 0 {
		t.tr.Emit(trace.EvLimboSkip, skipped, 0)
	}
	return visited, skipped, swept
}

func (t *Thread) tryAddFromLimbo(n *epoch.Node) {
	if n.Routing() {
		return // router nodes hold no set keys
	}
	itime := t.awaitITime(n)
	if itime >= t.ts {
		return
	}
	dtime := t.awaitDTime(n) // node is in limbo: it was deleted
	if dtime < t.ts {
		return
	}
	t.addKeys(n)
}

// tryAddFromAnnouncement implements lines 48–57 of Figure 3: the announced
// node may or may not end up deleted, so wait until either dtime is set or
// the announcement is withdrawn, then decide.
func (t *Thread) tryAddFromAnnouncement(n *epoch.Node, slot *atomic.Pointer[epoch.Node]) {
	if n.Routing() {
		return // router nodes hold no set keys
	}
	itime := t.awaitITime(n)
	if itime >= t.ts {
		return
	}
	var dtime uint64
	wb := t.prov.waitBudget
	for i := 0; ; i++ {
		dtime = n.DTime()
		if dtime != 0 || slot.Load() != n {
			break
		}
		if wb > 0 && i >= wb {
			// The announcer is wedged between announcing and deciding.
			// Include the node conservatively: if it is never deleted the
			// traversal also saw it and finishResult deduplicates.
			t.prov.met.fbA.Inc(t.id)
			dtime = ^uint64(0)
			break
		}
		t.helpOrYield(n, i)
	}
	if dtime == 0 {
		// The announcement was withdrawn. If the announcer deleted the
		// node, it set dtime before withdrawing; reread.
		dtime = n.DTime()
	}
	if dtime == 0 {
		// The announcer did not delete the node. If another process
		// deleted it, it appears in that process's announcements or in a
		// limbo list; if nobody did, the traversal already visited it.
		return
	}
	if dtime < t.ts {
		return
	}
	t.addKeys(n)
}

// awaitITime returns the node's insertion timestamp, waiting (lock/HTM
// modes) or helping the announced DCSS operations (lock-free mode) until it
// is available. Waits escalate through the provider's budgets: past
// SpinBudget iterations the waiter starts yielding the processor; past a
// positive WaitBudget it gives up and returns the maximum timestamp, which
// every caller reads as "inserted after the range query" — the conservative
// answer when the inserting thread is wedged before publication.
func (t *Thread) awaitITime(n *epoch.Node) uint64 {
	if ts := n.ITime(); ts != 0 {
		return ts
	}
	p := t.prov
	for i := 0; ; i++ {
		p.met.awaitISpins.Inc(t.id)
		if ts := n.ITime(); ts != 0 {
			return ts
		}
		if ts, ok := t.timeFromDescriptors(n, true); ok {
			n.SetITime(ts) // idempotent: helpers store the same value
			return ts
		}
		if ts := n.ITime(); ts != 0 {
			return ts
		}
		if p.waitBudget > 0 && i >= p.waitBudget {
			p.met.fbI.Inc(t.id)
			return ^uint64(0)
		}
		if i >= p.spinBudget {
			if i == p.spinBudget {
				p.met.escI.Inc(t.id)
			}
			runtime.Gosched()
		}
	}
}

// awaitDTime returns the node's deletion timestamp, for nodes known to have
// been (or to be being) deleted. Budgets escalate as in awaitITime; here the
// maximum-timestamp fallback reads as "deleted after the range query", so a
// wedged deleter's victim stays in the result.
func (t *Thread) awaitDTime(n *epoch.Node) uint64 {
	if ts := n.DTime(); ts != 0 {
		return ts
	}
	p := t.prov
	for i := 0; ; i++ {
		p.met.awaitDSpins.Inc(t.id)
		if ts := n.DTime(); ts != 0 {
			return ts
		}
		if ts, ok := t.timeFromDescriptors(n, false); ok {
			n.SetDTime(ts)
			return ts
		}
		if ts := n.DTime(); ts != 0 {
			return ts
		}
		if p.waitBudget > 0 && i >= p.waitBudget {
			p.met.fbD.Inc(t.id)
			return ^uint64(0)
		}
		if i >= p.spinBudget {
			if i == p.spinBudget {
				p.met.escD.Inc(t.id)
			}
			runtime.Gosched()
		}
	}
}

// helpOrYield makes progress while waiting on an announced node: in
// lock-free mode it helps the in-flight DCSS operations and publishes the
// deletion timestamp it derives (idempotent — every helper stores the same
// value); otherwise it yields once past the spin budget.
func (t *Thread) helpOrYield(n *epoch.Node, i int) {
	p := t.prov
	if p.mode == ModeLockFree {
		if ts, ok := t.timeFromDescriptors(n, false); ok {
			n.SetDTime(ts)
			return
		}
	}
	if i >= p.spinBudget {
		if i == p.spinBudget {
			p.met.escA.Inc(t.id)
		}
		runtime.Gosched()
	}
}

// timeFromDescriptors scans the announced DCSS descriptors (lock-free mode)
// for a successful operation that inserted (wantInsert) or deleted the node,
// helping undecided operations, and returns its timestamp.
func (t *Thread) timeFromDescriptors(n *epoch.Node, wantInsert bool) (uint64, bool) {
	if t.prov.mode != ModeLockFree {
		return 0, false
	}
	p := t.prov
	nthreads := int(p.registered.Load())
	for i := 0; i < nthreads; i++ {
		u := p.threads[i].Load()
		if u == nil {
			continue
		}
		d := u.desc.Load()
		if d == nil {
			continue
		}
		nodes := d.DNodes
		if wantInsert {
			nodes = d.INodes
		}
		match := false
		for _, x := range nodes {
			if x == n {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		if d.Help() == dcss.Succeeded {
			return d.Exp1, true
		}
	}
	return 0, false
}

// addKeys appends the node's keys lying in [low, high] to the result.
func (t *Thread) addKeys(n *epoch.Node) {
	if n.IsMulti() {
		for _, kv := range n.Multi() {
			if t.low <= kv.Key && kv.Key <= t.high {
				t.result = append(t.result, kv)
			}
		}
		return
	}
	k := n.Key()
	if t.low <= k && k <= t.high {
		t.result = append(t.result, epoch.KV{Key: k, Value: n.Value()})
	}
}

// finishResult sorts the collected keys and removes duplicates (the same key
// can legitimately be found both in the structure and in a limbo list, or —
// in Citrus — at two nodes during a successor swap). The concrete-typed
// slices.SortFunc keeps this allocation-free, unlike sort.Slice, whose
// interface conversion and reflect-based swapper allocate on every call —
// on the hot path of every range query.
func (t *Thread) finishResult() []epoch.KV {
	r := t.result
	if len(r) > t.resultHWM {
		t.resultHWM = len(r)
	}
	// Ordered traversals (lists, skip list) append in key order and the
	// recovery sweeps usually add nothing, so most results arrive sorted:
	// one O(n) scan beats re-proving it to the sort.
	if !slices.IsSortedFunc(r, compareKV) {
		slices.SortFunc(r, compareKV)
	}
	out := r[:0]
	for i := range r {
		if i == 0 || r[i].Key != r[i-1].Key {
			out = append(out, r[i])
		}
	}
	t.result = out
	return out
}

// compareKV orders key-value pairs by key (package-level so finishResult's
// sort call carries no closure allocation).
func compareKV(a, b epoch.KV) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	}
	return 0
}
