package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"ebrrq"
	"ebrrq/internal/trace"
)

// RQPoint is one machine-readable data point of the RQ-mix benchmark: a
// (structure, technique, thread-count) cell of the mixed update/range-query
// workload, with throughput split by class, RQ latency percentiles and the
// provider's hot-path counters (timestamp sharing and bag-fence skips).
type RQPoint struct {
	DS       string `json:"ds"`
	Tech     string `json:"tech"`
	Threads  int    `json:"threads"`
	RQPct    int    `json:"rq_pct"`
	RQSize   int64  `json:"rq_size"`
	KeyRange int64  `json:"key_range"`
	Trials   int    `json:"trials"`
	// Shards is the shard count of the sharded-set cell; 0 or 1 means the
	// plain single-provider Set (omitted from JSON for compatibility with
	// pre-sharding baselines).
	Shards int `json:"shards,omitempty"`
	// Technique is the range-query technique the cell ran: "ebr" (the
	// paper's provider) or "bundle" (bundled references). Empty in
	// baselines predating the technique dimension, which means "ebr" —
	// EBR cells keep their historical key, bundle cells get a "/bundle"
	// suffix and gate only against bundle baseline cells.
	Technique string `json:"technique,omitempty"`

	ElapsedMs    int64   `json:"elapsed_ms"`
	Ops          uint64  `json:"ops"`
	OpsPerUs     float64 `json:"ops_per_us"`
	UpdatesPerUs float64 `json:"updates_per_us"`
	RQsPerUs     float64 `json:"rqs_per_us"`
	// BestOpsPerUs is the highest single-trial throughput — the
	// low-noise estimator the regression gate prefers: on a timeshared
	// host the mean absorbs every scheduling hiccup of every trial,
	// while the best trial approximates what the code can do when the
	// host cooperates.
	BestOpsPerUs float64 `json:"best_ops_per_us,omitempty"`

	RQP50ns int64 `json:"rq_p50_ns"`
	RQP90ns int64 `json:"rq_p90_ns"`
	RQP99ns int64 `json:"rq_p99_ns"`

	LimboVisited uint64 `json:"limbo_visited"`
	// Peak unreclaimed garbage (nodes / approximate bytes, limbo plus
	// quarantine, max across trials) sampled every 1ms during the measured
	// window. Omitted when zero for compatibility with older baselines.
	PeakLimboNodes int64  `json:"peak_limbo_nodes,omitempty"`
	PeakLimboBytes int64  `json:"peak_limbo_bytes,omitempty"`
	TSShared       uint64 `json:"ts_shared"`
	TSAdvanced     uint64 `json:"ts_advanced"`
	FenceShared    uint64 `json:"fence_shared"`
	BagsSkipped    uint64 `json:"bags_skipped"`
	BagsSwept      uint64 `json:"bags_swept"`

	// Per-phase RQ time splits (total ns across all trials), collected by
	// the flight recorder; zero (and omitted) when tracing was off. Only
	// meaningful relative to each other — they overlap wall time across
	// workers.
	RQTSWaitNs   uint64 `json:"rq_ts_wait_ns,omitempty"`
	RQTraverseNs uint64 `json:"rq_traverse_ns,omitempty"`
	RQAnnounceNs uint64 `json:"rq_announce_ns,omitempty"`
	RQLimboNs    uint64 `json:"rq_limbo_ns,omitempty"`
}

// Key identifies the point's workload cell for baseline comparison. Plain
// (unsharded) cells keep their historical key, so refactored single-shard
// runs gate against pre-sharding baselines; sharded cells get a distinct
// suffix and are ignored by baselines that predate them.
func (p RQPoint) Key() string {
	k := fmt.Sprintf("%s/%s/t%d/rq%d", p.DS, p.Tech, p.Threads, p.RQPct)
	if p.Shards > 1 {
		k += fmt.Sprintf("/s%d", p.Shards)
	}
	if p.Technique != "" && p.Technique != "ebr" {
		k += "/" + p.Technique
	}
	return k
}

// RQReport is the BENCH_rq.json document: the host fingerprint plus one
// point per workload cell.
type RQReport struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// Note flags fingerprints under which parts of the report are known to
	// be meaningless — currently gomaxprocs=1, where the contention-path
	// counters (ts_shared, fence_shared) are structurally ~zero
	// because goroutines never overlap inside the provider.
	Note   string    `json:"note,omitempty"`
	Points []RQPoint `json:"points"`
}

// SingleProcNote is the RQReport.Note stamped on (and the warning printed
// for) reports measured at GOMAXPROCS=1.
const SingleProcNote = "gomaxprocs=1: contention-path counters (ts_shared, fence_shared) never trigger without goroutine overlap; do not read them as a contention measurement"

// RQBenchCfg parameterizes RunRQBench. Zero values select the quick
// configuration used by `make bench-quick` and the CI bench-smoke job.
type RQBenchCfg struct {
	DSs     []ebrrq.DataStructure
	Techs   []ebrrq.Mode
	Threads []int
	// RQPcts lists the range-query percentages to sweep; the remainder of
	// each mix splits evenly between inserts and deletes. Default
	// [0, 10, 50]: two update-heavy points and the historical RQ-heavy cell.
	RQPcts   []int
	RQSize   int64 // keys spanned per range query
	Scale    int64 // key-range divisor (see DefaultKeyRange)
	Trials   int
	Duration time.Duration
	Seed     int64
	Out      io.Writer // progress lines; nil silences
	// Shards lists the shard counts to run each cell at; values <= 1 mean
	// the plain Set. Default [1].
	Shards []int
	// Techniques lists the range-query techniques to run each cell at
	// (nil entry = EBR). Default [EBR]. Bundle entries run only for the
	// structures the technique supports, collapse the mode dimension (the
	// bundled structures use their own locking — each bundle cell runs
	// once, anchored at the first supported mode in Techs, labeled with
	// it).
	// Listing [EBR, Bundle] interleaves the A/B per cell, so both
	// techniques of a cell see the same host conditions.
	Techniques []ebrrq.Technique

	// NoTrace disables the flight recorder (tracing is on by default: the
	// recorder is how the per-phase RQ splits are collected, and its
	// overhead is within noise — see EXPERIMENTS.md "Flight recorder
	// overhead").
	NoTrace bool
	// TraceDump, if non-nil, receives the binary flight-recorder dump of
	// the final trial (feed it to cmd/rqtrace). Ignored with NoTrace.
	TraceDump io.Writer
}

func (c *RQBenchCfg) defaults() {
	if len(c.DSs) == 0 {
		c.DSs = []ebrrq.DataStructure{ebrrq.SkipList, ebrrq.LFList}
	}
	if len(c.Techs) == 0 {
		c.Techs = []ebrrq.Mode{ebrrq.Lock, ebrrq.LockFree}
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{8}
	}
	if len(c.RQPcts) == 0 {
		c.RQPcts = []int{0, 10, 50}
	}
	if c.RQSize <= 0 {
		c.RQSize = 64
	}
	if c.Scale <= 0 {
		c.Scale = 10
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Duration <= 0 {
		c.Duration = 200 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1}
	}
	if len(c.Techniques) == 0 {
		c.Techniques = []ebrrq.Technique{ebrrq.EBR}
	}
}

// RunRQBench runs the RQ-heavy mixed workload across every configured
// (structure, technique, thread-count) cell: each worker thread performs
// RQPct% range queries of RQSize keys and splits the remainder evenly
// between inserts and deletes.
func RunRQBench(cfg RQBenchCfg) (RQReport, error) {
	cfg.defaults()
	rep := RQReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	if rep.GOMAXPROCS == 1 {
		rep.Note = SingleProcNote
	}
	var lastRec *trace.Recorder
	// Discarded warmup trials before the measured matrix, repeated until at
	// least warmupFloor of wall clock has burned. A cold process's first
	// cell otherwise absorbs page-ins, heap growth, and GC ramp-up, and on
	// a quota-throttled host the first seconds of load additionally spend
	// whatever CPU burst credit accumulated while the machine idled —
	// either way the cells that run first measure a machine state no later
	// cell sees (observed as 25%+ deficits on the matrix's leading cells,
	// tripping the regression gate on pure process-lifecycle noise). A
	// fixed burn-in long enough to reach steady state makes the first
	// measured cell see the same host as the last. Scaled with the trial
	// duration so short-duration test runs stay fast.
	warmupFloor := 25 * cfg.Duration
	if warmupFloor > 5*time.Second {
		warmupFloor = 5 * time.Second
	}
warmup:
	for warmStart := time.Now(); time.Since(warmStart) < warmupFloor; {
		for _, ds := range cfg.DSs {
			for _, tech := range cfg.Techs {
				if !ebrrq.Supported(ds, tech) {
					continue
				}
				mix := Mix{InsertPct: 45, DeletePct: 45, RQPct: 10, RQSize: cfg.RQSize}
				threads := make([]Mix, cfg.Threads[0])
				for i := range threads {
					threads[i] = mix
				}
				if _, err := RunTrial(TrialCfg{
					DS: ds, Tech: tech, KeyRange: DefaultKeyRange(ds, cfg.Scale),
					Threads: threads, Duration: cfg.Duration, Seed: cfg.Seed,
				}); err != nil {
					return rep, err
				}
				continue warmup
			}
		}
		break
	}
	for _, ds := range cfg.DSs {
		for _, tech := range cfg.Techs {
			if !ebrrq.Supported(ds, tech) {
				continue
			}
			for _, nt := range cfg.Threads {
				for _, shards := range cfg.Shards {
					for _, rqPct := range cfg.RQPcts {
						for _, tq := range cfg.Techniques {
							if tq == nil {
								tq = ebrrq.EBR
							}
							if tq != ebrrq.EBR {
								// Non-EBR cells collapse the mode dimension: run once,
								// anchored at (and labeled with) the first mode in
								// Techs the technique supports for this structure.
								anchor, ok := techniqueAnchor(cfg.Techs, ds, tq)
								if !ok || tech != anchor {
									continue
								}
							}
							upd := (100 - rqPct) / 2
							mix := Mix{InsertPct: upd, DeletePct: upd,
								RQPct: 100 - 2*upd, RQSize: cfg.RQSize}
							threads := make([]Mix, nt)
							for i := range threads {
								threads[i] = mix
							}
							keyRange := DefaultKeyRange(ds, cfg.Scale)
							var total Result
							var best float64
							for trial := 0; trial < cfg.Trials; trial++ {
								// One recorder per trial: each trial builds a fresh
								// set, so sharing a recorder would pile up rings with
								// duplicate labels. The last trial's recorder feeds
								// TraceDump.
								var rec *trace.Recorder
								if !cfg.NoTrace {
									rec = trace.NewRecorder(trace.Config{EventsPerRing: 1024})
									lastRec = rec
								}
								res, err := RunTrial(TrialCfg{
									DS: ds, Tech: tech, KeyRange: keyRange,
									Threads: threads, Duration: cfg.Duration,
									Seed:      cfg.Seed + int64(trial)*31337,
									Shards:    shards,
									Trace:     rec,
									Technique: tq,
								})
								if err != nil {
									return rep, err
								}
								if t := res.TotalOpsPerUs(); t > best {
									best = t
								}
								total.Merge(&res)
							}
							ptShards := 0
							if shards > 1 {
								ptShards = shards
							}
							pt := RQPoint{
								DS: ds.String(), Tech: tech.String(), Threads: nt,
								RQPct: mix.RQPct, RQSize: cfg.RQSize, KeyRange: keyRange,
								Trials:         cfg.Trials,
								Shards:         ptShards,
								Technique:      tq.String(),
								ElapsedMs:      total.Elapsed.Milliseconds(),
								Ops:            total.Ops,
								OpsPerUs:       total.TotalOpsPerUs(),
								BestOpsPerUs:   best,
								UpdatesPerUs:   total.UpdatesPerUs(),
								RQsPerUs:       total.RQsPerUs(),
								RQP50ns:        int64(total.RQLatencyPercentile(50)),
								RQP90ns:        int64(total.RQLatencyPercentile(90)),
								RQP99ns:        int64(total.RQLatencyPercentile(99)),
								LimboVisited:   total.LimboVisit,
								PeakLimboNodes: total.PeakLimboNodes,
								PeakLimboBytes: total.PeakLimboBytes,
								TSShared:       total.Obs.Counter("ebrrq_rq_ts_shared"),
								TSAdvanced:     total.Obs.Counter("ebrrq_rq_ts_advanced"),
								FenceShared:    total.Obs.Counter("ebrrq_rq_fence_shared"),
								BagsSkipped:    total.Obs.Counter("ebrrq_rq_bags_skipped"),
								BagsSwept:      total.Obs.Counter("ebrrq_rq_bags_swept"),
								RQTSWaitNs:     total.Obs.Counter("ebrrq_rq_ts_wait_ns_total"),
								RQTraverseNs:   total.Obs.Counter("ebrrq_rq_traverse_ns_total"),
								RQAnnounceNs:   total.Obs.Counter("ebrrq_rq_announce_ns_total"),
								RQLimboNs:      total.Obs.Counter("ebrrq_rq_limbo_ns_total"),
							}
							rep.Points = append(rep.Points, pt)
							if cfg.Out != nil {
								fmt.Fprintf(cfg.Out,
									"%-24s %6.3f ops/us  %6.3f rq/us  p50 %s  p99 %s  ts_shared %d  bags_skipped %d\n",
									pt.Key(), pt.OpsPerUs, pt.RQsPerUs,
									time.Duration(pt.RQP50ns), time.Duration(pt.RQP99ns),
									pt.TSShared, pt.BagsSkipped)
								if split := pt.PhaseSplit(); split != "" {
									fmt.Fprintf(cfg.Out, "%-24s   rq phases: %s\n", "", split)
								}
							}
						}
					}
				}
			}
		}
	}
	if cfg.TraceDump != nil && lastRec != nil {
		if _, err := lastRec.Snapshot().WriteTo(cfg.TraceDump); err != nil {
			return rep, fmt.Errorf("writing trace dump: %w", err)
		}
	}
	return rep, nil
}

// PhaseSplit renders the point's per-phase RQ time attribution as
// "ts_wait 12% / traverse 70% / announce 8% / limbo 10%", or "" when the
// point carries no phase data (tracing off, or no RQs ran).
func (p RQPoint) PhaseSplit() string {
	tot := p.RQTSWaitNs + p.RQTraverseNs + p.RQAnnounceNs + p.RQLimboNs
	if tot == 0 {
		return ""
	}
	pct := func(v uint64) float64 { return 100 * float64(v) / float64(tot) }
	return fmt.Sprintf("ts_wait %.1f%% / traverse %.1f%% / announce %.1f%% / limbo %.1f%%",
		pct(p.RQTSWaitNs), pct(p.RQTraverseNs), pct(p.RQAnnounceNs), pct(p.RQLimboNs))
}

// RQEnvMismatch compares the host fingerprints of a baseline and a current
// report. A non-empty result means the two were measured on differently
// shaped hosts and throughput comparison is meaningless — callers must
// refuse to gate rather than report bogus regressions.
func RQEnvMismatch(baseline, current RQReport) []string {
	var msgs []string
	if baseline.GOMAXPROCS != current.GOMAXPROCS {
		msgs = append(msgs, fmt.Sprintf("gomaxprocs: baseline %d vs current %d",
			baseline.GOMAXPROCS, current.GOMAXPROCS))
	}
	if baseline.NumCPU != current.NumCPU {
		msgs = append(msgs, fmt.Sprintf("num_cpu: baseline %d vs current %d",
			baseline.NumCPU, current.NumCPU))
	}
	if baseline.GoVersion != current.GoVersion {
		msgs = append(msgs, fmt.Sprintf("go_version: baseline %s vs current %s",
			baseline.GoVersion, current.GoVersion))
	}
	return msgs
}

// WriteJSON renders the report as indented JSON.
func (r RQReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadRQReport parses a BENCH_rq.json document.
func ReadRQReport(rd io.Reader) (RQReport, error) {
	var r RQReport
	err := json.NewDecoder(rd).Decode(&r)
	return r, err
}

// CompareRQReports checks current against baseline: for every workload cell
// present in both, total throughput must not fall more than maxRegress
// (a fraction, e.g. 0.20) below the baseline. When both sides carry
// BestOpsPerUs the gate compares best single trials — on a timeshared host
// the trial mean swings far more than the 20% budget (one descheduled
// quantum in a 200ms trial is a 5%+ dent, and every trial rolls that die),
// while best-of-N converges on the hardware's actual capability.
//
// Before applying the per-cell budget the gate corrects for uniform host
// drift: the reference host's effective speed wanders over minutes
// (thermal/cgroup/neighbor load), and that shift hits every cell of the
// matrix alike, while a code regression hits the specific cells whose path
// changed. The correction is the median current/baseline ratio across all
// comparable cells, applied only when below 1 (the gate never gets
// stricter than the plain comparison) and floored at 0.75 so a genuine
// across-the-board regression beyond 25% still trips.
//
// It returns one message per regressed cell; an empty slice means the gate
// passes. Cells only present on one side are ignored (the benchmark matrix
// may grow).
func CompareRQReports(baseline, current RQReport, maxRegress float64) []string {
	base := make(map[string]RQPoint, len(baseline.Points))
	for _, p := range baseline.Points {
		base[p.Key()] = p
	}
	type cell struct {
		key      string
		cur, ref float64
		metric   string
	}
	var cells []cell
	for _, p := range current.Points {
		b, ok := base[p.Key()]
		if !ok || b.OpsPerUs <= 0 {
			continue
		}
		cur, ref, metric := p.OpsPerUs, b.OpsPerUs, "ops/us"
		if p.BestOpsPerUs > 0 && b.BestOpsPerUs > 0 {
			cur, ref, metric = p.BestOpsPerUs, b.BestOpsPerUs, "best ops/us"
		}
		cells = append(cells, cell{p.Key(), cur, ref, metric})
	}
	ratios := make([]float64, 0, len(cells))
	for _, c := range cells {
		ratios = append(ratios, c.cur/c.ref)
	}
	drift := hostDrift(ratios)
	var msgs []string
	for _, c := range cells {
		ref := c.ref * drift
		if c.cur < ref*(1-maxRegress) {
			msgs = append(msgs, fmt.Sprintf(
				"%s: %.3f %s is %.1f%% below baseline %.3f %s (gate: %.0f%%, host drift ×%.2f)",
				c.key, c.cur, c.metric, 100*(1-c.cur/ref),
				ref, c.metric, 100*maxRegress, drift))
		}
	}
	return msgs
}

// MinRQReports folds an earlier report into the current one, keeping the
// per-cell minimum of the gated throughput figures (OpsPerUs and
// BestOpsPerUs). `make rebaseline` measures the matrix twice and merges
// with this, so the committed baseline is a conservative floor: on a
// timeshared host individual cells flip between scheduler regimes worth
// 25-40%, and a baseline that happened to capture a cell's fast regime
// would gate every later slow-regime run. Against the floor, only a run
// that falls 20%+ below the cell's slow regime — a real regression —
// trips. Cells absent from prev pass through unchanged; prev's extra
// cells are dropped (the matrix is defined by the current run).
func MinRQReports(cur, prev RQReport) RQReport {
	old := make(map[string]RQPoint, len(prev.Points))
	for _, p := range prev.Points {
		old[p.Key()] = p
	}
	for i, p := range cur.Points {
		b, ok := old[p.Key()]
		if !ok {
			continue
		}
		if b.OpsPerUs > 0 && b.OpsPerUs < p.OpsPerUs {
			cur.Points[i].OpsPerUs = b.OpsPerUs
		}
		if b.BestOpsPerUs > 0 && b.BestOpsPerUs < p.BestOpsPerUs {
			cur.Points[i].BestOpsPerUs = b.BestOpsPerUs
		}
	}
	return cur
}

// hostDrift estimates the uniform host-speed shift between the baseline and
// current runs as the median per-cell throughput ratio, clamped to
// [0.75, 1]: relaxation only, bounded at 25%. See CompareRQReports.
func hostDrift(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 1
	}
	ratios = append([]float64(nil), ratios...)
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		med = (med + ratios[len(ratios)/2-1]) / 2
	}
	switch {
	case med >= 1:
		return 1
	case med < 0.75:
		return 0.75
	}
	return med
}

// techniqueAnchor picks the mode a non-EBR technique cell is anchored at:
// the first mode in techs the technique supports for ds. Bundle structures
// bring their own synchronization, so the mode dimension collapses to a
// single labeled cell instead of multiplying the matrix.
func techniqueAnchor(techs []ebrrq.Mode, ds ebrrq.DataStructure, tq ebrrq.Technique) (ebrrq.Mode, bool) {
	for _, m := range techs {
		if tq.Supports(ds, m) {
			return m, true
		}
	}
	return 0, false
}
