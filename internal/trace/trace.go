// Package trace is the flight recorder: an always-on, lock-free log of
// compact binary events covering the full lifecycle of every operation —
// op begin/end, timestamp advance vs adopt, epoch pin, announce scans,
// per-bag limbo sweeps, DCSS retries, epoch advances, retire/rotate/reclaim,
// and watchdog stall edges (DESIGN.md §10).
//
// Each provider thread slot owns one fixed-size Ring and is the Ring's only
// writer; readers (snapshot, /debug/trace, stall dumps) may run at any time
// without stopping the writers. A slot is four atomic uint64 words; the
// writer invalidates the meta word, stores the payload, then publishes the
// meta word (seq<<8|type) last, so a reader that observes the same non-zero
// meta before and after loading the payload has a consistent event and
// discards anything torn by a concurrent overwrite. The whole protocol is
// plain sync/atomic — no mutexes on the write path, race-detector clean.
//
// Time is a single process-wide monotonic clock (Now, nanoseconds since the
// package's load time), so events from different rings order globally by
// timestamp and per-ring by sequence number. A nil *Recorder and a nil *Ring
// are both inert: every method is a nil-check away from a no-op, which is
// the zero-cost disabled path.
package trace

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventType identifies what a ring slot records. The numeric values are part
// of the dump format (dump.go) — append new types, never renumber.
type EventType uint8

const (
	// EvNone marks an empty or invalidated slot; never appears in snapshots.
	EvNone EventType = iota
	// EvOpBegin: arg1 = op kind (OpInsert..OpRQ), arg2 = key (or RQ low).
	EvOpBegin
	// EvOpEnd: arg1 = op kind, arg2 = duration ns since the matching begin.
	EvOpEnd
	// EvTSAdvance: a range query won the timestamp CAS. arg1 = ts,
	// arg2 = ns spent acquiring the timestamp (the ts_wait phase).
	EvTSAdvance
	// EvTSAdopt: a range query lost the CAS and adopted the winner's
	// timestamp. arg1 = ts, arg2 = ts_wait ns (includes fence adoption).
	EvTSAdopt
	// EvTSPinned: a cross-shard range query ran this shard's fence work at
	// a router-chosen timestamp. arg1 = ts, arg2 = ts_wait ns.
	EvTSPinned
	// EvAnnScan: announcement-array sweep at TraversalEnd. arg1 = slots
	// scanned, arg2 = announce-phase ns (scan + candidate processing).
	EvAnnScan
	// EvLimboBag: one limbo bag actually walked (not fence-skipped).
	// arg1 = nodes visited in the bag, arg2 = the bag's maxDTime fence.
	EvLimboBag
	// EvLimboSkip: bags skipped by the maxDTime fence this sweep.
	// arg1 = bags skipped, arg2 = 0.
	EvLimboSkip
	// EvLimboDone: limbo sweep finished. arg1 = nodes visited total,
	// arg2 = limbo-phase ns.
	EvLimboDone
	// EvTraverse: structure traversal finished (before the sweeps).
	// arg1 = result length so far, arg2 = traverse-phase ns.
	EvTraverse
	// EvDCSSRetry: lock-free update restarted because the timestamp moved
	// under its DCSS. arg1 = the timestamp observed, arg2 = 0.
	EvDCSSRetry
	// EvEpochAdvance: this thread's CAS moved the global epoch.
	// arg1 = new epoch, arg2 = 0.
	EvEpochAdvance
	// EvEpochPin: cross-shard RQ pinned this shard's epoch. arg1 = epoch.
	EvEpochPin
	// EvEpochUnpin: the pin was released. arg1 = epoch at release.
	EvEpochUnpin
	// EvRetire: a node entered the current limbo bag. arg1 = dtime
	// (^0 if unset), arg2 = bag epoch.
	EvRetire
	// EvRotate: limbo bags rotated at StartOp. arg1 = epoch rotated into,
	// arg2 = nodes reclaimed from the recycled bag.
	EvRotate
	// EvReclaim: an orphan/adopted chain was freed. arg1 = nodes freed,
	// arg2 = source thread slot id.
	EvReclaim
	// EvStall: watchdog flagged a thread as stalled. arg1 = thread slot id,
	// arg2 = ns the thread has been stuck.
	EvStall
	// EvStallRecover: every previously flagged thread moved again.
	EvStallRecover
	// EvCrossRQBegin: sharded router started a cross-shard range query.
	// arg1 = number of shards spanned, arg2 = low key (two's complement).
	EvCrossRQBegin
	// EvCrossRQEnd: cross-shard range query finished. arg1 = shared
	// timestamp used, arg2 = duration ns.
	EvCrossRQEnd
	// EvLimboPressure: limbo crossed the soft limit (watchdog view).
	// arg1 = limbo+quarantine node count, arg2 = the soft limit.
	EvLimboPressure
	// EvForceAdvance: the watchdog forced global-epoch advance attempts to
	// drain limbo. arg1 = epochs advanced, arg2 = limbo nodes before.
	EvForceAdvance
	// EvForceSweep: the watchdog forced an orphan-bag sweep. arg1 = nodes
	// reclaimed by the sweep, arg2 = limbo nodes before.
	EvForceSweep
	// EvNeutralize: the watchdog poisoned a stalled thread's announcement so
	// it no longer pins the epoch. arg1 = thread slot id, arg2 = ns the
	// thread had been stuck.
	EvNeutralize
	// EvNeutralizeAck: a neutralized thread observed the poison at an op
	// boundary and acknowledged. arg1 = thread slot id, arg2 = 0.
	EvNeutralizeAck
	// EvQuarantine: a reclaimable limbo chain was diverted to the quarantine
	// list because a neutralization is unacknowledged. arg1 = nodes
	// quarantined, arg2 = source thread slot id.
	EvQuarantine
	// EvQuarantineDrain: the quarantine list was released to the free
	// function after the last outstanding acknowledgement. arg1 = nodes
	// freed, arg2 = bytes freed.
	EvQuarantineDrain
	// EvBackpressure: an update was rejected (or delayed past its bounded
	// wait) because limbo+quarantine reached the hard limit. arg1 = limbo
	// node count observed, arg2 = the hard limit.
	EvBackpressure
	// EvBundleEnter: a bundle-technique range query began its as-of-ts
	// traversal. arg1 = ts, arg2 = low key.
	EvBundleEnter
	// EvBundleGC: a bundle garbage-collection pass finished. arg1 = the
	// reclamation floor (min active timestamp), arg2 = entries pruned.
	EvBundleGC
)

// Op kinds carried in EvOpBegin/EvOpEnd arg1.
const (
	OpInsert uint64 = iota + 1
	OpDelete
	OpContains
	OpRQ
)

// OpName returns the display name for an op kind.
func OpName(kind uint64) string {
	switch kind {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpContains:
		return "contains"
	case OpRQ:
		return "rq"
	default:
		return "op?"
	}
}

var typeNames = map[EventType]string{
	EvOpBegin: "op_begin", EvOpEnd: "op_end",
	EvTSAdvance: "ts_advance", EvTSAdopt: "ts_adopt", EvTSPinned: "ts_pinned",
	EvAnnScan: "ann_scan", EvLimboBag: "limbo_bag", EvLimboSkip: "limbo_skip",
	EvLimboDone: "limbo_done", EvTraverse: "traverse",
	EvDCSSRetry: "dcss_retry", EvEpochAdvance: "epoch_advance",
	EvEpochPin: "epoch_pin", EvEpochUnpin: "epoch_unpin",
	EvRetire: "retire", EvRotate: "rotate", EvReclaim: "reclaim",
	EvStall: "stall", EvStallRecover: "stall_recover",
	EvCrossRQBegin: "xrq_begin", EvCrossRQEnd: "xrq_end",
	EvLimboPressure: "limbo_pressure", EvForceAdvance: "force_advance",
	EvForceSweep: "force_sweep", EvNeutralize: "neutralize",
	EvNeutralizeAck: "neutralize_ack", EvQuarantine: "quarantine",
	EvQuarantineDrain: "quarantine_drain", EvBackpressure: "backpressure",
	EvBundleEnter: "bundle_enter", EvBundleGC: "bundle_gc",
}

// String returns the event type's snake_case name.
func (t EventType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return "ev?"
}

// epoch0 anchors the process-wide monotonic clock. time.Since on a
// monotonic-bearing time.Time is a pure monotonic-clock delta.
var epoch0 = time.Now()

// Now returns nanoseconds of monotonic time since process trace start. All
// events across all rings share this clock.
func Now() int64 { return int64(time.Since(epoch0)) }

// Config sizes a Recorder. The zero value gives usable defaults.
type Config struct {
	// EventsPerRing is each ring's capacity, rounded up to a power of two.
	// Default 2048 (64 KiB per thread at 32 B/event).
	EventsPerRing int
	// MaxRings caps how many rings the recorder hands out; past the cap
	// Ring returns nil (callers degrade to untraced). Guards chaos tests
	// that register thousands of short-lived threads. Default 512.
	MaxRings int
	// SlowOp is the tail-capture threshold: an op whose begin→end span
	// meets or exceeds it has its events copied to a retained slow-op log
	// before the ring overwrites them. 0 means the 10ms default; negative
	// disables tail capture.
	SlowOp time.Duration
	// SlowOpCap bounds the retained slow-op log (oldest evicted first).
	// Default 64.
	SlowOpCap int
}

func (c Config) withDefaults() Config {
	if c.EventsPerRing <= 0 {
		c.EventsPerRing = 2048
	}
	n := 1
	for n < c.EventsPerRing {
		n <<= 1
	}
	c.EventsPerRing = n
	if c.MaxRings <= 0 {
		c.MaxRings = 512
	}
	if c.SlowOp == 0 {
		c.SlowOp = 10 * time.Millisecond
	}
	if c.SlowOpCap <= 0 {
		c.SlowOpCap = 64
	}
	return c
}

// Recorder owns the rings and the retained slow-op log. All methods are safe
// on a nil receiver (the disabled path).
type Recorder struct {
	cfg Config

	mu       sync.Mutex
	rings    []*Ring
	slow     []SlowOp // ring buffer of SlowOpCap entries
	slowNext int
	refused  uint64 // Ring() calls past MaxRings
}

// NewRecorder builds a Recorder with cfg (zero value = defaults).
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.withDefaults()}
}

// Ring allocates a new ring labeled label. Returns nil — an inert ring —
// when the recorder is nil or MaxRings is reached.
func (r *Recorder) Ring(label string) *Ring {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rings) >= r.cfg.MaxRings {
		r.refused++
		return nil
	}
	rg := &Ring{
		rec:   r,
		label: label,
		mask:  uint64(r.cfg.EventsPerRing - 1),
		words: make([]atomic.Uint64, 4*r.cfg.EventsPerRing),
	}
	r.rings = append(r.rings, rg)
	return rg
}

// SlowOp is one tail-captured operation: the events between its begin and
// end, copied out of the ring when the op exceeded the threshold.
type SlowOp struct {
	Label  string        `json:"ring"`
	Kind   uint64        `json:"kind"`
	Dur    time.Duration `json:"dur_ns"`
	End    int64         `json:"end_ns"` // Now() at op end
	Events []Event       `json:"events"`
}

func (r *Recorder) addSlow(op SlowOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.slow) < r.cfg.SlowOpCap {
		r.slow = append(r.slow, op)
		return
	}
	r.slow[r.slowNext] = op
	r.slowNext = (r.slowNext + 1) % r.cfg.SlowOpCap
}

// Event is one decoded ring slot.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time int64     `json:"t_ns"` // Now() at emit
	Type EventType `json:"-"`
	Arg1 uint64    `json:"a1"`
	Arg2 uint64    `json:"a2"`
}

// MarshalJSON renders the event with its type spelled out, for the human
// (?format=json) form of /debug/trace.
func (e Event) MarshalJSON() ([]byte, error) {
	type alias Event
	return json.Marshal(struct {
		Type string `json:"type"`
		alias
	}{Type: e.Type.String(), alias: alias(e)})
}

// RingSnap is one ring's consistent events, in sequence order.
type RingSnap struct {
	Label  string  `json:"label"`
	Events []Event `json:"events"`
}

// Snapshot is a point-in-time copy of the recorder, safe to serialize while
// the writers keep running.
type Snapshot struct {
	Wall         time.Time  `json:"wall"`
	Mono         int64      `json:"mono_ns"` // Now() at snapshot
	Rings        []RingSnap `json:"rings"`
	SlowOps      []SlowOp   `json:"slow_ops,omitempty"`
	RefusedRings uint64     `json:"refused_rings,omitempty"`
}

// Snapshot copies out every ring's consistent events plus the slow-op log.
// Nil-safe: a nil recorder yields an empty snapshot.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{Wall: time.Now(), Mono: Now()}
	if r == nil {
		return s
	}
	r.mu.Lock()
	rings := append([]*Ring(nil), r.rings...)
	// Oldest-first copy of the slow-op ring buffer.
	s.SlowOps = append(s.SlowOps, r.slow[r.slowNext:]...)
	s.SlowOps = append(s.SlowOps, r.slow[:r.slowNext]...)
	s.RefusedRings = r.refused
	r.mu.Unlock()
	for _, rg := range rings {
		s.Rings = append(s.Rings, RingSnap{Label: rg.label, Events: rg.read(0)})
	}
	return s
}

// Ring is a single-writer fixed-size event buffer. The owning thread is the
// only writer; any goroutine may read via Recorder.Snapshot. All methods are
// nil-safe no-ops.
type Ring struct {
	rec   *Recorder
	label string
	mask  uint64
	words []atomic.Uint64 // 4 per slot: meta(seq<<8|type), time, arg1, arg2

	// Writer-only state (never touched by readers).
	seq     uint64
	opKind  uint64
	opSeq   uint64
	opStart int64
	opOpen  bool
	lastDur int64
}

// Label returns the ring's label ("" for nil).
func (g *Ring) Label() string {
	if g == nil {
		return ""
	}
	return g.label
}

// Emit records one event stamped Now().
func (g *Ring) Emit(t EventType, a1, a2 uint64) {
	if g == nil {
		return
	}
	g.EmitAt(t, Now(), a1, a2)
}

// EmitAt records one event with a caller-supplied timestamp (callers that
// already read the clock for phase accounting avoid a second read).
func (g *Ring) EmitAt(t EventType, now int64, a1, a2 uint64) {
	if g == nil {
		return
	}
	g.seq++
	i := (g.seq & g.mask) * 4
	w := g.words
	// Invalidate → payload → publish. A reader that sees the same non-zero
	// meta on both sides of its payload loads got a consistent slot.
	w[i].Store(0)
	w[i+1].Store(uint64(now))
	w[i+2].Store(a1)
	w[i+3].Store(a2)
	w[i].Store(g.seq<<8 | uint64(t))
}

// OpBegin opens an operation span (for slow-op capture) and emits EvOpBegin.
func (g *Ring) OpBegin(kind, arg uint64) {
	if g == nil {
		return
	}
	now := Now()
	g.opKind, g.opSeq, g.opStart, g.opOpen = kind, g.seq+1, now, true
	g.EmitAt(EvOpBegin, now, kind, arg)
}

// OpEnd closes the span opened by OpBegin, emits EvOpEnd with the duration,
// and tail-captures the op's events if it exceeded the slow-op threshold.
func (g *Ring) OpEnd(kind uint64) {
	if g == nil {
		return
	}
	now := Now()
	var dur int64
	matched := g.opOpen && g.opKind == kind
	if matched {
		dur = now - g.opStart
		g.opOpen = false
	}
	g.lastDur = dur
	g.EmitAt(EvOpEnd, now, kind, uint64(dur))
	if matched && g.rec.cfg.SlowOp > 0 && time.Duration(dur) >= g.rec.cfg.SlowOp {
		g.rec.addSlow(SlowOp{
			Label:  g.label,
			Kind:   kind,
			Dur:    time.Duration(dur),
			End:    now,
			Events: g.read(g.opSeq),
		})
	}
}

// LastOpDur returns the duration recorded by the most recent OpEnd
// (writer-side convenience for tests).
func (g *Ring) LastOpDur() time.Duration {
	if g == nil {
		return 0
	}
	return time.Duration(g.lastDur)
}

// read decodes every consistent slot with Seq >= minSeq, sorted by sequence.
// Safe concurrently with the writer: torn slots are detected by the meta
// recheck and dropped.
func (g *Ring) read(minSeq uint64) []Event {
	n := len(g.words) / 4
	evs := make([]Event, 0, n)
	for s := 0; s < n; s++ {
		i := s * 4
		m := g.words[i].Load()
		if m == 0 {
			continue
		}
		tm := g.words[i+1].Load()
		a1 := g.words[i+2].Load()
		a2 := g.words[i+3].Load()
		if g.words[i].Load() != m {
			continue // overwritten mid-read
		}
		ev := Event{
			Seq:  m >> 8,
			Time: int64(tm),
			Type: EventType(m & 0xff),
			Arg1: a1,
			Arg2: a2,
		}
		if ev.Seq >= minSeq {
			evs = append(evs, ev)
		}
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].Seq < evs[b].Seq })
	return evs
}
