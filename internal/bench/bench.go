// Package bench is the microbenchmark harness reproducing the paper's
// experiments (§5): timed trials of mixed insert/delete/search/range-query
// workloads over every data structure × technique pair, with throughput
// accounting split by operation class and the limbo-list statistics of
// Experiment 1b.
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ebrrq"
	"ebrrq/internal/obs"
	"ebrrq/internal/trace"
)

// Mix is one worker thread's operation mix, in percent. RQPct queries span
// RQSize consecutive keys at a uniform offset.
type Mix struct {
	InsertPct, DeletePct, SearchPct, RQPct int
	RQSize                                 int64
}

// Updates5050 is the canonical 50% insert / 50% delete updater.
var Updates5050 = Mix{InsertPct: 50, DeletePct: 50}

// RQOnly performs 100% range queries of the given size.
func RQOnly(size int64) Mix { return Mix{RQPct: 100, RQSize: size} }

// TrialCfg configures one timed trial.
type TrialCfg struct {
	DS       ebrrq.DataStructure
	Tech     ebrrq.Mode
	KeyRange int64 // keys drawn uniformly from [0, KeyRange)
	Threads  []Mix // one worker per entry
	Duration time.Duration
	Seed     int64

	// Technique selects the range-query algorithm family (nil = EBR, the
	// paper's provider; ebrrq.Bundle = bundled references). With Bundle
	// the Tech mode only names the benchmark cell — the bundled structures
	// use their own locking.
	Technique ebrrq.Technique

	// Shards > 1 runs the trial against an ebrrq.Sharded set partitioning
	// [0, KeyRange) across that many shards on one shared clock; 0 or 1
	// selects the plain single-provider Set.
	Shards int

	// Metrics, if non-nil, is the observability registry the trial's set
	// reports to — typically shared with a live obs.Serve endpoint. When
	// nil, RunTrial creates a private registry so Result accounting always
	// reads from the same instrumentation the endpoint would.
	Metrics *obs.Registry

	// NoMetrics runs the trial with observability disabled entirely (the
	// zero-cost default path of ebrrq.Options). Used for the metrics-on
	// vs. metrics-off overhead comparison; registry-derived Result fields
	// (LimboVisit, LimboHist, HTMAborts, Obs) stay zero.
	NoMetrics bool

	// Trace, if non-nil, attaches the flight recorder to the trial's set:
	// every worker gets a per-thread ring and the registry collects the
	// per-phase RQ time counters (ebrrq_rq_{ts_wait,traverse,announce,
	// limbo}_ns_total). Nil runs the zero-cost disabled path.
	Trace *trace.Recorder
}

// Result aggregates a trial's measurements. Throughput counters come from
// the worker loops; limbo, abort and histogram statistics are read from
// the trial's observability registry (the same series a live /metrics
// endpoint serves), so benchmark output and monitoring can never disagree.
type Result struct {
	Elapsed    time.Duration
	Ops        uint64 // all completed operations
	Updates    uint64 // completed inserts + deletes (successful or not)
	Searches   uint64
	RQs        uint64
	RQKeys     uint64 // total keys returned by range queries
	LimboVisit uint64 // limbo-list nodes visited by RQs (provider techniques)
	LimboHist  [24]uint64
	LimboSize  int // EBR limbo size at the end of the trial
	HTMAborts  uint64

	// Obs is the trial's observability delta: every metric the registry
	// collected between the start and the end of the measured window.
	Obs obs.Snapshot

	// rqLat is a sample of range-query latencies in nanoseconds.
	rqLat []int64
}

// RQLatencies returns the sampled range-query latencies (nanoseconds), in
// collection order. The caller may sort or mutate the returned slice.
func (r *Result) RQLatencies() []int64 {
	return append([]int64(nil), r.rqLat...)
}

// Merge folds another trial's result into r: counters, histograms and the
// observability snapshot add; latency samples are concatenated (so
// cross-trial percentiles weigh every sample, not just the last trial's);
// LimboSize keeps the most recent trial's end-of-run value.
func (r *Result) Merge(o *Result) {
	r.Elapsed += o.Elapsed
	r.Ops += o.Ops
	r.Updates += o.Updates
	r.Searches += o.Searches
	r.RQs += o.RQs
	r.RQKeys += o.RQKeys
	r.LimboVisit += o.LimboVisit
	for b := range r.LimboHist {
		r.LimboHist[b] += o.LimboHist[b]
	}
	r.LimboSize = o.LimboSize
	r.HTMAborts += o.HTMAborts
	r.Obs = r.Obs.Add(o.Obs)
	r.rqLat = append(r.rqLat, o.rqLat...)
}

// RQLatencyPercentile returns the p-th percentile (0 < p <= 100) of sampled
// range-query latencies, or 0 if no RQs were sampled.
func (r *Result) RQLatencyPercentile(p float64) time.Duration {
	if len(r.rqLat) == 0 {
		return 0
	}
	sort.Slice(r.rqLat, func(i, j int) bool { return r.rqLat[i] < r.rqLat[j] })
	idx := int(p/100*float64(len(r.rqLat))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.rqLat) {
		idx = len(r.rqLat) - 1
	}
	return time.Duration(r.rqLat[idx])
}

// TotalOpsPerUs returns total operations per microsecond (the paper's
// headline metric).
func (r Result) TotalOpsPerUs() float64 {
	return float64(r.Ops) / float64(r.Elapsed.Microseconds())
}

// UpdatesPerUs returns updates per microsecond.
func (r Result) UpdatesPerUs() float64 {
	return float64(r.Updates) / float64(r.Elapsed.Microseconds())
}

// RQsPerUs returns range queries per microsecond.
func (r Result) RQsPerUs() float64 {
	return float64(r.RQs) / float64(r.Elapsed.Microseconds())
}

// opHandle is the per-goroutine operation surface the workers drive; both
// *ebrrq.Thread and *ebrrq.ShardedThread satisfy it, so one worker loop
// benchmarks plain and sharded sets alike.
type opHandle interface {
	Insert(key, value int64) bool
	Delete(key int64) bool
	Contains(key int64) (int64, bool)
	RangeQuery(low, high int64) []ebrrq.KV
	Close()
}

// RunTrial prefills the structure to half the key range and runs the
// configured worker threads for the configured duration.
func RunTrial(cfg TrialCfg) (Result, error) {
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 1 << 14
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	reg := cfg.Metrics
	if !cfg.NoMetrics && reg == nil {
		reg = obs.NewRegistry(len(cfg.Threads) + 1)
	}
	if cfg.NoMetrics {
		reg = nil
	}
	// newHandle registers a worker; limboSize and htmAborts read the
	// end-of-trial provider stats (summed across shards when sharded).
	var newHandle func() opHandle
	var limboSize func() int
	var htmAborts func() uint64
	if cfg.Shards > 1 {
		sh, err := ebrrq.NewShardedWithOptions(cfg.DS, cfg.Tech, len(cfg.Threads)+1,
			cfg.Shards, ebrrq.ShardedOptions{
				Technique: cfg.Technique,
				Metrics:   reg, Trace: cfg.Trace,
				KeyMin: 0, KeyMax: cfg.KeyRange - 1})
		if err != nil {
			return Result{}, err
		}
		newHandle = func() opHandle { return sh.NewThread() }
		limboSize = func() (n int) {
			for i := 0; i < sh.Shards(); i++ {
				n += sh.Shard(i).LimboSize()
			}
			return n
		}
		htmAborts = func() (n uint64) {
			for i := 0; i < sh.Shards(); i++ {
				n += sh.Shard(i).HTMAborts()
			}
			return n
		}
	} else {
		set, err := ebrrq.NewWithOptions(cfg.DS, cfg.Tech, len(cfg.Threads)+1,
			ebrrq.Options{Technique: cfg.Technique,
				Metrics: reg, Trace: cfg.Trace})
		if err != nil {
			return Result{}, err
		}
		newHandle = func() opHandle { return set.NewThread() }
		if set.Domain() != nil {
			limboSize = set.LimboSize
			htmAborts = set.HTMAborts
		}
	}
	prefill(newHandle(), cfg.KeyRange, cfg.Seed)

	type counters struct {
		ops, upd, srch, rqs, rqKeys uint64
		lat                         []int64
		_                           [40]byte
	}
	counts := make([]counters, len(cfg.Threads))
	const maxLatSamples = 4096

	var start, stop sync.WaitGroup
	var halt atomic.Bool
	start.Add(1)
	for w, mix := range cfg.Threads {
		stop.Add(1)
		go func(w int, mix Mix) {
			defer stop.Done()
			th := newHandle()
			r := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			c := &counts[w]
			start.Wait()
			for !halt.Load() {
				p := r.Intn(100)
				k := r.Int63n(cfg.KeyRange)
				switch {
				case p < mix.InsertPct:
					th.Insert(k, k)
					c.upd++
				case p < mix.InsertPct+mix.DeletePct:
					th.Delete(k)
					c.upd++
				case p < mix.InsertPct+mix.DeletePct+mix.SearchPct:
					th.Contains(k)
					c.srch++
				default:
					width := mix.RQSize
					lo := int64(0)
					if width <= 0 || width >= cfg.KeyRange {
						width = cfg.KeyRange
					} else {
						lo = r.Int63n(cfg.KeyRange - width)
					}
					sample := len(c.lat) < maxLatSamples && c.rqs%8 == 0
					var t0 time.Time
					if sample {
						t0 = time.Now()
					}
					res := th.RangeQuery(lo, lo+width-1)
					if sample {
						c.lat = append(c.lat, time.Since(t0).Nanoseconds())
					}
					c.rqs++
					c.rqKeys += uint64(len(res))
				}
				c.ops++
			}
		}(w, mix)
	}

	var before obs.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}
	t0 := time.Now()
	start.Done()
	time.Sleep(cfg.Duration)
	halt.Store(true)
	stop.Wait()
	elapsed := time.Since(t0)

	res := Result{Elapsed: elapsed}
	for i := range counts {
		res.Ops += counts[i].ops
		res.Updates += counts[i].upd
		res.Searches += counts[i].srch
		res.RQs += counts[i].rqs
		res.RQKeys += counts[i].rqKeys
		res.rqLat = append(res.rqLat, counts[i].lat...)
	}
	if reg != nil {
		// Limbo, abort and histogram statistics come from the registry —
		// the same series a live /metrics endpoint serves.
		res.Obs = reg.Snapshot().Sub(before)
		res.LimboVisit = res.Obs.Counter("ebrrq_limbo_visited_total")
		res.HTMAborts = res.Obs.Counter("ebrrq_htm_aborts_total")
		if h, ok := res.Obs.Hist("ebrrq_limbo_visited_per_rq"); ok {
			for b, v := range h.Buckets {
				dst := b
				if dst >= len(res.LimboHist) {
					dst = len(res.LimboHist) - 1
				}
				res.LimboHist[dst] += v
			}
		}
	}
	if limboSize != nil {
		res.LimboSize = limboSize()
	}
	if reg == nil && htmAborts != nil {
		// Observability disabled: fall back to the lock's raw abort
		// count so the overhead A/B still reports aborts.
		res.HTMAborts = htmAborts()
	}
	return res, nil
}

// histBucket maps a limbo-visit count to a power-of-two bucket index.
func histBucket(v uint64) int {
	b := 0
	for v > 0 && b < 23 {
		v >>= 1
		b++
	}
	return b
}

// BucketLabel renders a histogram bucket's range.
func BucketLabel(b int) string {
	if b == 0 {
		return "0"
	}
	return fmt.Sprintf("%d-%d", 1<<(b-1), (1<<b)-1)
}

// Prefill inserts random keys until the set holds KeyRange/2 of them
// (paper §5: "data structures are prefilled with approximately K/2 keys").
func Prefill(set *ebrrq.Set, keyRange int64, seed int64) {
	prefill(set.NewThread(), keyRange, seed)
}

// prefill is Prefill over any operation handle (plain or sharded). The
// handle is left open: callers budget one extra thread slot for it.
func prefill(th opHandle, keyRange int64, seed int64) {
	r := rand.New(rand.NewSource(seed + 424243))
	for inserted := int64(0); inserted < keyRange/2; {
		k := r.Int63n(keyRange)
		if th.Insert(k, k) {
			inserted++
		}
	}
}

// DefaultKeyRange returns the paper's key range for a structure (§5
// Experiment 1), divided by scale (>= 1) to fit smaller machines.
func DefaultKeyRange(d ebrrq.DataStructure, scale int64) int64 {
	if scale < 1 {
		scale = 1
	}
	var k int64
	switch d {
	case ebrrq.ABTree:
		k = 1_000_000
	case ebrrq.LFBST, ebrrq.Citrus, ebrrq.SkipList:
		k = 100_000
	default: // lists: linear operations
		k = 10_000
	}
	k /= scale
	if k < 128 {
		k = 128
	}
	return k
}

// Row is one line of an experiment table.
type Row struct {
	Label string
	Cells []string
}

// Table renders rows with aligned columns.
func Table(header Row, rows []Row) string {
	widths := make([]int, len(header.Cells)+1)
	widths[0] = len(header.Label)
	for i, c := range header.Cells {
		widths[i+1] = len(c)
	}
	for _, r := range rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
		for i, c := range r.Cells {
			if i+1 < len(widths) && len(c) > widths[i+1] {
				widths[i+1] = len(c)
			}
		}
	}
	line := func(r Row) string {
		s := fmt.Sprintf("%-*s", widths[0], r.Label)
		for i, c := range r.Cells {
			w := 0
			if i+1 < len(widths) {
				w = widths[i+1]
			}
			s += fmt.Sprintf("  %*s", w, c)
		}
		return s + "\n"
	}
	out := line(header)
	for _, r := range rows {
		out += line(r)
	}
	return out
}

// ModesFor lists the techniques applicable to a structure in the
// paper's presentation order.
func ModesFor(d ebrrq.DataStructure) []ebrrq.Mode {
	all := []ebrrq.Mode{ebrrq.Lock, ebrrq.HTM, ebrrq.LockFree,
		ebrrq.RLU, ebrrq.Snap, ebrrq.Unsafe}
	var out []ebrrq.Mode
	for _, t := range all {
		if ebrrq.Supported(d, t) {
			out = append(out, t)
		}
	}
	return out
}

// SortedBuckets returns the non-empty histogram buckets in order.
func SortedBuckets(h [24]uint64) []int {
	var out []int
	for b, c := range h {
		if c > 0 {
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return out
}
