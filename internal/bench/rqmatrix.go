package bench

import (
	"fmt"
	"io"
	"time"

	"ebrrq"
	"ebrrq/internal/trace"
)

// RQPoint is one cell of the RQ-mix matrix: a (structure, mode,
// thread-count, shard-count, rq-percentage, technique) point of the mixed
// update/range-query workload, all trials merged, with throughput split by
// class, RQ latency percentiles and the provider's hot-path counters
// (timestamp sharing and bag-fence skips).
type RQPoint struct {
	DS      string
	Tech    string
	Threads int
	RQPct   int
	// Shards is the shard count of the cell; <= 1 means the plain
	// single-provider Set.
	Shards int
	// Technique is the range-query technique the cell ran: "ebr" (the
	// paper's provider) or "bundle" (bundled references).
	Technique string

	Ops          uint64
	OpsPerUs     float64
	UpdatesPerUs float64
	RQsPerUs     float64

	RQP50 time.Duration
	RQP99 time.Duration

	TSShared    uint64
	BagsSkipped uint64

	// Per-phase RQ time splits (total ns across all trials), collected by
	// the flight recorder; zero when tracing was off. Only meaningful
	// relative to each other — they overlap wall time across workers.
	RQTSWaitNs   uint64
	RQTraverseNs uint64
	RQAnnounceNs uint64
	RQLimboNs    uint64
}

// Key names the point's cell: "SkipList/Lock/t8/rq10", with a "/s4" suffix
// on sharded cells and a "/bundle" suffix on non-EBR technique cells.
func (p RQPoint) Key() string {
	k := fmt.Sprintf("%s/%s/t%d/rq%d", p.DS, p.Tech, p.Threads, p.RQPct)
	if p.Shards > 1 {
		k += fmt.Sprintf("/s%d", p.Shards)
	}
	if p.Technique != "ebr" {
		k += "/" + p.Technique
	}
	return k
}

// RQBenchCfg parameterizes RunRQBench. Zero values select cmd/rqbench's
// defaults.
type RQBenchCfg struct {
	DSs     []ebrrq.DataStructure
	Techs   []ebrrq.Mode
	Threads []int
	// RQPcts lists the range-query percentages to sweep; the remainder of
	// each mix splits evenly between inserts and deletes. Default
	// [0, 10, 50]: two update-heavy points and an RQ-heavy one.
	RQPcts   []int
	RQSize   int64 // keys spanned per range query
	Scale    int64 // key-range divisor (see DefaultKeyRange)
	Trials   int
	Duration time.Duration
	Seed     int64
	Out      io.Writer // one line per cell (plus its phase split); nil discards
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
	// recorder is how the per-phase RQ splits are collected — see
	// EXPERIMENTS.md "Flight recorder overhead" for what it costs).
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
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// RunRQBench runs the mixed workload across every configured (structure,
// mode, thread-count, shard-count, rq-percentage, technique) cell and
// returns one point per cell, in run order: each worker thread performs
// RQPct% range queries of RQSize keys and splits the remainder evenly
// between inserts and deletes. The technique loop is innermost, so the
// techniques of one cell run back to back.
func RunRQBench(cfg RQBenchCfg) ([]RQPoint, error) {
	cfg.defaults()
	if err := cfg.warmUp(); err != nil {
		return nil, err
	}
	var points []RQPoint
	var lastRec *trace.Recorder
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
							pt, rec, err := cfg.runCell(ds, tech, nt, shards, rqPct, tq)
							if err != nil {
								return points, err
							}
							points = append(points, pt)
							lastRec = rec
						}
					}
				}
			}
		}
	}
	if cfg.TraceDump != nil && lastRec != nil {
		if _, err := lastRec.Snapshot().WriteTo(cfg.TraceDump); err != nil {
			return points, fmt.Errorf("writing trace dump: %w", err)
		}
	}
	return points, nil
}

// warmUp runs one discarded trial of the first supported cell, so the first
// measured cell does not absorb the cold process's page-ins, heap growth and
// GC ramp-up.
func (c *RQBenchCfg) warmUp() error {
	for _, ds := range c.DSs {
		for _, tech := range c.Techs {
			if !ebrrq.Supported(ds, tech) {
				continue
			}
			nt := c.Threads[0]
			fmt.Fprintf(c.Out, "# warm-up: one discarded trial of %s/%s/t%d\n", ds, tech, nt)
			_, err := RunTrial(TrialCfg{
				DS: ds, Tech: tech, KeyRange: DefaultKeyRange(ds, c.Scale),
				Threads:  uniformMix(nt, 10, c.RQSize),
				Duration: c.Duration, Seed: c.Seed,
			})
			return err
		}
	}
	return nil
}

// uniformMix gives each of nt workers rqPct% range queries of rqSize keys,
// the remainder split evenly between inserts and deletes (an odd remainder
// rounds toward range queries).
func uniformMix(nt, rqPct int, rqSize int64) []Mix {
	upd := (100 - rqPct) / 2
	threads := make([]Mix, nt)
	for i := range threads {
		threads[i] = Mix{InsertPct: upd, DeletePct: upd, RQPct: 100 - 2*upd, RQSize: rqSize}
	}
	return threads
}

// runCell runs one cell's trials, merges them into a point and prints it.
// It also returns the last trial's recorder (nil with NoTrace), which is
// what TraceDump receives when the cell is the run's last.
func (c *RQBenchCfg) runCell(ds ebrrq.DataStructure, tech ebrrq.Mode, nt, shards, rqPct int,
	tq ebrrq.Technique) (RQPoint, *trace.Recorder, error) {
	threads := uniformMix(nt, rqPct, c.RQSize)
	var total Result
	var rec *trace.Recorder
	for trial := 0; trial < c.Trials; trial++ {
		// One recorder per trial: each trial builds a fresh set, so sharing
		// a recorder would pile up rings with duplicate labels.
		if !c.NoTrace {
			rec = trace.NewRecorder(trace.Config{EventsPerRing: 1024})
		}
		res, err := RunTrial(TrialCfg{
			DS: ds, Tech: tech, KeyRange: DefaultKeyRange(ds, c.Scale),
			Threads: threads, Duration: c.Duration,
			Seed:      c.Seed + int64(trial)*31337,
			Shards:    shards,
			Trace:     rec,
			Technique: tq,
		})
		if err != nil {
			return RQPoint{}, nil, err
		}
		total.Merge(&res)
	}
	pt := RQPoint{
		DS: ds.String(), Tech: tech.String(), Threads: nt,
		RQPct:        threads[0].RQPct,
		Shards:       shards,
		Technique:    tq.String(),
		Ops:          total.Ops,
		OpsPerUs:     total.TotalOpsPerUs(),
		UpdatesPerUs: total.UpdatesPerUs(),
		RQsPerUs:     total.RQsPerUs(),
		RQP50:        total.RQLatencyPercentile(50),
		RQP99:        total.RQLatencyPercentile(99),
		TSShared:     total.Obs.Counter("ebrrq_rq_ts_shared"),
		BagsSkipped:  total.Obs.Counter("ebrrq_rq_bags_skipped"),
		RQTSWaitNs:   total.Obs.Counter("ebrrq_rq_ts_wait_ns_total"),
		RQTraverseNs: total.Obs.Counter("ebrrq_rq_traverse_ns_total"),
		RQAnnounceNs: total.Obs.Counter("ebrrq_rq_announce_ns_total"),
		RQLimboNs:    total.Obs.Counter("ebrrq_rq_limbo_ns_total"),
	}
	fmt.Fprintf(c.Out,
		"%-36s %6.3f ops/us  %6.3f rq/us  p50 %s  p99 %s  ts_shared %d  bags_skipped %d\n",
		pt.Key(), pt.OpsPerUs, pt.RQsPerUs, pt.RQP50, pt.RQP99,
		pt.TSShared, pt.BagsSkipped)
	if split := pt.PhaseSplit(); split != "" {
		fmt.Fprintf(c.Out, "%-36s   rq phases: %s\n", "", split)
	}
	return pt, rec, nil
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
