package ebrrq

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"ebrrq/internal/epoch"
	"ebrrq/internal/obs"
	"ebrrq/internal/rqprov"
	"ebrrq/internal/trace"
)

// Sharded is a key-range-partitioned set: N independent Sets (each with its
// own RQ provider, update lock and EBR domain) linearized on one shared
// timestamp clock. Point operations touch exactly one shard; a range query
// picks a single timestamp from the shared clock and runs the paper's
// collect+announce+limbo protocol on every overlapping shard at that same
// timestamp, so the concatenation of the per-shard results — shards own
// disjoint, ordered key ranges — is a sorted, linearizable snapshot of the
// whole key space (DESIGN.md §9).
//
// Sharding trades bounded range-query fan-out for update scalability:
// updates on different shards share nothing but the clock word (which
// Lock/HTM updates only read), where a single Set sends every update
// through one lock, one announcement table and one limbo machinery.
type Sharded struct {
	ds     DataStructure
	tech   Mode
	tq     Technique
	clock  *rqprov.SharedClock
	shards []*Set
	// starts[i] is the lowest key owned by shard i: shard i covers
	// [starts[i], starts[i+1]-1] and the last shard ends at keyMax.
	starts         []int64
	keyMin, keyMax int64
	met            *shardedMetrics
	mtids          atomic.Int32
}

// ShardedOptions tunes NewShardedWithOptions.
type ShardedOptions struct {
	// Technique selects the range-query algorithm family for every shard
	// (nil = EBR); see Options.Technique. All shards run one technique —
	// they linearize on one clock, and the cross-shard router relies on
	// the technique's pin contract uniformly.
	Technique Technique

	// Recorder receives every timestamped update across all shards
	// (validation harness support). Thread ids are offset per shard —
	// shard k reports tid + k*maxThreads — so the ids the recorder sees
	// are unique across the whole sharded set.
	Recorder rqprov.Recorder

	// Metrics turns on the observability layer. Each shard registers its
	// series under a shard="<k>" label (so shards never collide in the
	// shared registry), and the sharded layer adds aggregate series; see
	// shardedMetrics. Snapshot.Gauge/Hist sum and merge across label
	// sets, so whole-set views come free.
	Metrics *obs.Registry

	// KeyMin and KeyMax bound the key space partitioned across shards
	// (inclusive). Both zero selects the full [MinKey, MaxKey] range.
	// Operations on keys outside the range panic — such a key has no
	// owning shard, and storing it anywhere would silently exclude it
	// from cross-shard range queries.
	KeyMin, KeyMax int64

	// WaitBudget bounds how long each shard's range queries wait on an
	// unresolved concurrent update before resolving it conservatively;
	// 0 waits indefinitely (see Options.WaitBudget). A positive budget
	// keeps cross-shard queries live when one shard hosts a stalled
	// updater.
	WaitBudget int

	// Trace attaches one flight recorder to every shard: shard k's rings
	// are labeled "s<k>/t<id>", each shard's watchdog ring "s<k>/watchdog",
	// and the router records a cross-shard span (xrq_begin/xrq_end) on the
	// first overlapping shard's ring around every multi-shard range query.
	Trace *trace.Recorder

	// LimboSoftLimit / LimboHardLimit bound each shard's unreclaimed node
	// count independently (see Options.LimboSoftLimit): a stalled thread
	// only backpressures updates routed to the shard it is stalled on —
	// the other shards keep reclaiming and accepting writes.
	LimboSoftLimit int64
	LimboHardLimit int64

	// PressureWait is each shard's bounded wait at the hard limit before an
	// update is rejected with ErrMemoryPressure; see Options.PressureWait.
	PressureWait time.Duration
}

// shardedMetrics holds the router-layer aggregate observability handles;
// per-shard detail lives in each shard's shard="<k>" labeled series.
type shardedMetrics struct {
	singleShard *obs.Counter   // ebrrq_rq_single_shard_total
	crossShard  *obs.Counter   // ebrrq_rq_cross_shard_total
	fanout      *obs.Histogram // ebrrq_rq_fanout_shards
}

// NewSharded creates a key-range-partitioned set with the given number of
// shards; maxThreads bounds the registered threads (each thread holds one
// handle per shard).
func NewSharded(d DataStructure, t Mode, maxThreads, shards int) (*Sharded, error) {
	return NewShardedWithOptions(d, t, maxThreads, shards, ShardedOptions{})
}

// NewShardedWithOptions is NewSharded with tuning options.
func NewShardedWithOptions(d DataStructure, t Mode, maxThreads, shards int, opt ShardedOptions) (*Sharded, error) {
	tq := opt.Technique
	if tq == nil {
		tq = EBR
	}
	switch t {
	case Unsafe, Lock, HTM, LockFree:
	default:
		return nil, fmt.Errorf("ebrrq: sharding requires a timestamp-based mode, not %v", t)
	}
	if !tq.Supports(d, t) {
		return nil, fmt.Errorf("ebrrq: the %v technique does not support %v in %v mode", tq, d, t)
	}
	if maxThreads <= 0 {
		return nil, fmt.Errorf("ebrrq: maxThreads must be positive")
	}
	if shards <= 0 {
		return nil, fmt.Errorf("ebrrq: shards must be positive")
	}
	keyMin, keyMax := opt.KeyMin, opt.KeyMax
	if keyMin == 0 && keyMax == 0 {
		keyMin, keyMax = MinKey, MaxKey
	}
	if keyMin > keyMax {
		return nil, fmt.Errorf("ebrrq: KeyMin %d > KeyMax %d", keyMin, keyMax)
	}
	span := uint64(keyMax) - uint64(keyMin) + 1 // exact: keyMax >= keyMin
	if span != 0 && uint64(shards) > span {
		return nil, fmt.Errorf("ebrrq: %d shards over a %d-key range", shards, span)
	}
	s := &Sharded{
		ds: d, tech: t, tq: tq,
		clock:  rqprov.NewSharedClock(),
		shards: make([]*Set, shards),
		starts: make([]int64, shards),
		keyMin: keyMin, keyMax: keyMax,
	}
	// Uniform contiguous partition. All arithmetic is uint64 so the full
	// int64 key space (span near 2^64) never overflows; the first
	// span%shards shards absorb the remainder one key each.
	step, rem := span/uint64(shards), span%uint64(shards)
	cur := uint64(keyMin)
	for i := 0; i < shards; i++ {
		s.starts[i] = int64(cur)
		cur += step
		if uint64(i) < rem {
			cur++
		}
	}
	if opt.Metrics != nil {
		s.met = &shardedMetrics{
			singleShard: opt.Metrics.Counter("ebrrq_rq_single_shard_total",
				"range queries answered by one shard without a pinned timestamp"),
			crossShard: opt.Metrics.Counter("ebrrq_rq_cross_shard_total",
				"range queries spanning several shards at one pinned timestamp"),
			fanout: opt.Metrics.Histogram("ebrrq_rq_fanout_shards",
				"shards touched per cross-shard range query"),
		}
		opt.Metrics.GaugeFunc("ebrrq_shards", "shards in the sharded set",
			func() int64 { return int64(shards) })
	}
	for i := range s.shards {
		o := Options{
			Technique:      opt.Technique,
			Metrics:        opt.Metrics,
			Clock:          s.clock,
			WaitBudget:     opt.WaitBudget,
			LimboSoftLimit: opt.LimboSoftLimit,
			LimboHardLimit: opt.LimboHardLimit,
			PressureWait:   opt.PressureWait,
		}
		if opt.Metrics != nil {
			o.MetricLabels = fmt.Sprintf(`shard="%d"`, i)
		}
		if opt.Trace != nil {
			o.Trace = opt.Trace
			o.TraceLabel = fmt.Sprintf("s%d/", i)
		}
		if opt.Recorder != nil {
			o.Recorder = offsetRecorder{r: opt.Recorder, off: i * maxThreads}
		}
		set, err := NewWithOptions(d, t, maxThreads, o)
		if err != nil {
			return nil, err
		}
		s.shards[i] = set
	}
	return s, nil
}

// offsetRecorder shifts a shard's thread ids into a range disjoint from
// every other shard's, so one Recorder (whose contract assumes a single
// writer per tid) can observe the whole sharded set.
type offsetRecorder struct {
	r   rqprov.Recorder
	off int
}

func (o offsetRecorder) RecordUpdate(tid int, ts uint64, inodes, dnodes []*epoch.Node) {
	o.r.RecordUpdate(tid+o.off, ts, inodes, dnodes)
}

// DataStructure returns the per-shard structure.
func (s *Sharded) DataStructure() DataStructure { return s.ds }

// Mode returns the per-shard EBR linearization mode.
func (s *Sharded) Mode() Mode { return s.tech }

// Technique returns the shards' range-query technique (EBR or Bundle).
func (s *Sharded) Technique() Technique { return s.tq }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard exposes shard i (for stats and tests).
func (s *Sharded) Shard(i int) *Set { return s.shards[i] }

// Clock returns the timestamp source all shards linearize on.
func (s *Sharded) Clock() rqprov.TimestampSource { return s.clock }

// KeyRange returns the inclusive key bounds partitioned across the shards.
func (s *Sharded) KeyRange() (min, max int64) { return s.keyMin, s.keyMax }

// ShardStart returns the lowest key owned by shard i (for tests).
func (s *Sharded) ShardStart(i int) int64 { return s.starts[i] }

// shardOf returns the index of the shard owning key; the key must be inside
// [keyMin, keyMax].
func (s *Sharded) shardOf(key int64) int {
	// First shard whose start exceeds key, minus one. starts[0] == keyMin
	// <= key, so the result is never -1.
	return sort.Search(len(s.starts), func(i int) bool { return s.starts[i] > key }) - 1
}

// shardEnd returns the highest key owned by shard i.
func (s *Sharded) shardEnd(i int) int64 {
	if i == len(s.starts)-1 {
		return s.keyMax
	}
	return s.starts[i+1] - 1
}

func (s *Sharded) checkKey(key int64) {
	if key < s.keyMin || key > s.keyMax {
		panic(fmt.Sprintf("ebrrq: key %d outside the sharded key range [%d, %d]",
			key, s.keyMin, s.keyMax))
	}
}

// Health returns an aggregate health check over every shard: critical (503)
// when any shard sits at its hard limbo limit, degraded when any shard has a
// stalled thread, an unacknowledged neutralization, or a breached soft
// limit. Per-shard detail is prefixed "shard <i>:".
func (s *Sharded) Health() obs.HealthCheck {
	return obs.HealthCheck{
		Name: "epoch",
		Check: func() error {
			for i, sh := range s.shards {
				if err := sh.Health().Check(); err != nil {
					return fmt.Errorf("shard %d: %w", i, err)
				}
			}
			return nil
		},
		Warn: func() error {
			for i, sh := range s.shards {
				if err := sh.Health().Warn(); err != nil {
					return fmt.Errorf("shard %d: %w", i, err)
				}
			}
			return nil
		},
	}
}

// StartWatchdogs attaches an epoch watchdog (see epoch.WatchdogConfig) to
// every shard's domain and returns a function stopping them all. Stall and
// recover callbacks fire per shard.
func (s *Sharded) StartWatchdogs(cfg epoch.WatchdogConfig) (stop func()) {
	wds := make([]*epoch.Watchdog, len(s.shards))
	for i, sh := range s.shards {
		wds[i] = sh.Domain().StartWatchdog(cfg)
	}
	return func() {
		for _, w := range wds {
			w.Stop()
		}
	}
}

// ShardedThread is a per-goroutine handle to a Sharded set: one shard
// handle per shard plus a reusable merge buffer. Handles must not be shared
// between goroutines.
type ShardedThread struct {
	set *Sharded
	ths []*Thread
	// lastTS is the linearization timestamp of the most recent range
	// query (the pinned timestamp for cross-shard queries).
	lastTS uint64
	mtid   int

	// result is the cross-shard merge buffer; resultHWM restores its
	// steady-state capacity after a drop, as in rqprov.Thread.
	result    []KV
	resultHWM int
}

// NewThread registers a goroutine with every shard, panicking when a shard
// is out of thread slots. Prefer TryNewThread where that is survivable.
func (s *Sharded) NewThread() *ShardedThread {
	t, err := s.TryNewThread()
	if err != nil {
		panic("ebrrq: " + err.Error())
	}
	return t
}

// TryNewThread registers a goroutine with every shard. Slots released by
// Close are reused. The returned handle must only be used by a single
// goroutine.
func (s *Sharded) TryNewThread() (*ShardedThread, error) {
	t := &ShardedThread{set: s, ths: make([]*Thread, len(s.shards)),
		mtid: int(s.mtids.Add(1)) - 1}
	for i, sh := range s.shards {
		th, err := sh.TryNewThread()
		if err != nil {
			for _, prev := range t.ths[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		t.ths[i] = th
	}
	return t, nil
}

// Close releases the thread's slot on every shard. Idempotent; after Close
// the handle must not be used again.
func (t *ShardedThread) Close() {
	for _, th := range t.ths {
		th.Close()
	}
}

// ShardThread exposes the per-shard handle for shard i (validation harness
// support).
func (t *ShardedThread) ShardThread(i int) *Thread { return t.ths[i] }

// Insert adds key with the given value to the owning shard; it returns
// false (without overwriting) if key is already present. Panics if key is
// outside the sharded key range.
func (t *ShardedThread) Insert(key, value int64) bool {
	t.set.checkKey(key)
	return t.ths[t.set.shardOf(key)].Insert(key, value)
}

// Delete removes key from the owning shard, reporting whether it was
// present. Panics if key is outside the sharded key range.
func (t *ShardedThread) Delete(key int64) bool {
	t.set.checkKey(key)
	return t.ths[t.set.shardOf(key)].Delete(key)
}

// TryInsert is Insert with graceful degradation on the owning shard: it
// returns ErrMemoryPressure when that shard is at its hard limbo limit and
// ErrNeutralized when the shard's watchdog revoked this handle's thread.
// Other shards are unaffected either way. Panics (like Insert) if key is
// outside the sharded key range.
func (t *ShardedThread) TryInsert(key, value int64) (bool, error) {
	t.set.checkKey(key)
	return t.ths[t.set.shardOf(key)].TryInsert(key, value)
}

// TryDelete is Delete with graceful degradation; see TryInsert.
func (t *ShardedThread) TryDelete(key int64) (bool, error) {
	t.set.checkKey(key)
	return t.ths[t.set.shardOf(key)].TryDelete(key)
}

// Contains returns the value stored under key. Panics if key is outside the
// sharded key range.
func (t *ShardedThread) Contains(key int64) (int64, bool) {
	t.set.checkKey(key)
	return t.ths[t.set.shardOf(key)].Contains(key)
}

// RangeQuery returns all pairs with low <= key <= high, sorted by key; the
// bounds are clamped to the sharded key range. With every technique except
// Unsafe the result is linearizable: a query overlapping one shard runs
// that shard's ordinary protocol (updates on other shards cannot affect
// keys it owns), and a query overlapping several picks one timestamp from
// the shared clock, pins it on each overlapping shard's provider thread —
// which performs its shard's fence work at that timestamp before
// traversing — and concatenates the per-shard results, already sorted and
// disjoint by construction. The returned slice is valid until this
// thread's next range query.
func (t *ShardedThread) RangeQuery(low, high int64) []KV {
	s := t.set
	if low < s.keyMin {
		low = s.keyMin
	}
	if high > s.keyMax {
		high = s.keyMax
	}
	if low > high {
		t.lastTS = 0
		return nil
	}
	s1, s2 := s.shardOf(low), s.shardOf(high)
	if s1 == s2 {
		res := t.ths[s1].RangeQuery(low, high)
		t.lastTS = t.ths[s1].LastRQTimestamp()
		if m := s.met; m != nil {
			m.singleShard.Inc(t.mtid)
		}
		return res
	}
	// The cross-shard span lands on the first overlapping shard's ring: one
	// xrq_begin/xrq_end pair bracketing every pinned per-shard RQ, so the
	// analyzer can attribute the whole fan-out to a single span.
	tr := t.ths[s1].tr
	var xrqStart int64
	if tr != nil {
		xrqStart = trace.Now()
		tr.EmitAt(trace.EvCrossRQBegin, xrqStart, uint64(s2-s1+1), uint64(low))
	}
	var ts uint64
	if s.tech != Unsafe {
		// Pin every overlapping shard's epoch BEFORE taking the timestamp:
		// from the pin on, no shard reclaims limbo nodes, so every deletion
		// the query must observe (dtime >= ts, assigned after this point on
		// some shard we have yet to traverse) is still in that shard's limbo
		// bags when the sweep gets there. Without the pins a shard's epoch
		// keeps advancing while the query is busy in earlier shards, and
		// nodes deleted after ts age out of limbo before being swept —
		// observed as missing keys in the later shards of a cross-shard
		// query. Unpin via defer: a panic inside a shard's traversal aborts
		// that shard's provider state (clearing its own pin), and the defer
		// releases the rest.
		for i := s1; i <= s2; i++ {
			t.ths[i].impl.pinEpoch()
		}
		defer func() {
			for i := s1; i <= s2; i++ {
				t.ths[i].impl.unpinEpoch()
			}
		}()
		ts, _ = s.clock.AdvanceOrAdopt()
	}
	t.lastTS = ts
	if cap(t.result) < t.resultHWM {
		t.result = make([]KV, 0, t.resultHWM)
	}
	out := t.result[:0]
	for i := s1; i <= s2; i++ {
		lo, hi := low, high
		if i > s1 {
			lo = s.starts[i]
		}
		if i < s2 {
			hi = s.shardEnd(i)
		}
		th := t.ths[i]
		if ts != 0 {
			// Pinned immediately before the shard's query, so a panic
			// inside it (whose guard clears the shard's provider state,
			// pin included) leaves no stale pin on any shard.
			th.impl.pinTimestamp(ts)
		}
		out = append(out, th.RangeQuery(lo, hi)...)
	}
	t.result = out
	if len(out) > t.resultHWM {
		t.resultHWM = len(out)
	}
	if m := s.met; m != nil {
		m.crossShard.Inc(t.mtid)
		m.fanout.Observe(uint64(s2 - s1 + 1))
	}
	if tr != nil {
		now := trace.Now()
		tr.EmitAt(trace.EvCrossRQEnd, now, ts, uint64(now-xrqStart))
	}
	return out
}

// LastRQTimestamp returns the linearization timestamp of this thread's most
// recent range query: the pinned shared-clock timestamp for a cross-shard
// query, the owning shard's timestamp for a single-shard one (0 for Unsafe
// or an empty clamped range).
func (t *ShardedThread) LastRQTimestamp() uint64 { return t.lastTS }
