package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ebrrq"
	"ebrrq/internal/obs"
	"ebrrq/internal/trace"
)

// Run phases, published by the pass's main goroutine and polled by workers.
const (
	phaseWarm uint32 = iota
	phaseMeasure
	phaseStop
)

const (
	// updateSampleEvery is the latency sampling period for inserts and
	// deletes in an untraced pass: timing each would add two clock reads to
	// a sub-microsecond operation. Range queries are always timed.
	updateSampleEvery = 16
	// spanSampleEvery is the point-operation span sampling period in the
	// traced pass; every range query gets a span.
	spanSampleEvery = 64
	latencyCap      = 1 << 19 // latency samples kept per class and worker
	spanCap         = 1 << 18 // spans kept per worker
	// livenessSlack is how long past its planned end a pass may run before
	// it is declared wedged.
	livenessSlack = 20 * time.Second
	// setupAllowance bounds construction and prefill for the same purpose.
	setupAllowance = 60 * time.Second
)

// base anchors every timestamp of the process to one monotonic origin.
var base = time.Now()

func nanos() int64 { return int64(time.Since(base)) }

// armDeadline aborts the process with a goroutine dump if it is still
// running after d; the returned timer can be Reset as phases complete.
func armDeadline(what string, d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its liveness deadline; goroutines:\n", what)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // diagnostics only
		os.Exit(3)
	})
}

// span is one timed call into the set, in nanoseconds since the process's
// time origin.
type span struct {
	start, end int64
	class      uint8
}

// worker is one closed-loop client. Everything it writes while running is
// its own; the main goroutine reads only published and, after the worker has
// returned, the rest.
type worker struct {
	id     int
	tgt    *target
	h      handle
	gen    *opGen
	traced bool

	phase      uint32
	updates    uint64 // inserts+deletes issued, drives latency sampling
	points     uint64 // point ops issued, drives span sampling
	total      uint64 // operations completed since the worker started
	start, end int64  // this worker's measured window

	counts    [numClasses]uint64 // measured window only
	succeeded uint64             // inserts and deletes that returned true
	rqKeys    uint64
	failed    uint64
	failures  []string // first few failure descriptions
	busy      [numClasses]int64
	lat       [numClasses]*sampler[uint32]
	spans     *sampler[span]

	_         [64]byte
	published atomic.Uint64 // copy of total, for the per-second windows
	_         [64]byte
}

func newWorker(id int, w *workload, tgt *target, seed int64, traced bool) (*worker, error) {
	h, err := tgt.newThread()
	if err != nil {
		return nil, err
	}
	wk := &worker{id: id, tgt: tgt, h: h, traced: traced,
		gen: newOpGen(seed, id, w.roles[id], w.keyRange, w.rqWidth)}
	for c, share := range w.roles[id] {
		if share > 0 {
			wk.lat[c] = newSampler[uint32](latencyCap)
		}
	}
	if traced {
		wk.spans = newSampler[span](spanCap)
	}
	return wk, nil
}

func (wk *worker) fail(format string, args ...any) {
	wk.failed++
	if len(wk.failures) < 8 {
		wk.failures = append(wk.failures, fmt.Sprintf(format, args...))
	}
}

// beginWindow discards everything the warm-up accumulated.
func (wk *worker) beginWindow() {
	wk.counts = [numClasses]uint64{}
	wk.busy = [numClasses]int64{}
	wk.succeeded, wk.rqKeys = 0, 0
	for _, s := range wk.lat {
		if s != nil {
			s.reset()
		}
	}
	if wk.spans != nil {
		wk.spans.reset()
	}
	wk.start = nanos()
}

// run drives the worker until the stop phase. A panic out of the set is
// counted as a failed operation; the worker then replaces its handle, whose
// state the panic may have left unusable, and carries on.
func (wk *worker) run(phase *atomic.Uint32) error {
	for !wk.loop(phase) {
		wk.h.Close()
		h, err := wk.tgt.newThread()
		if err != nil {
			return fmt.Errorf("worker %d: re-register after panic: %w", wk.id, err)
		}
		wk.h = h
	}
	return nil
}

func (wk *worker) loop(phase *atomic.Uint32) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			wk.fail("panic: %v", r)
		}
	}()
	h := wk.h
	for {
		if ph := phase.Load(); ph != wk.phase {
			wk.phase = ph
			switch ph {
			case phaseMeasure:
				wk.beginWindow()
			case phaseStop:
				wk.end = nanos()
				wk.published.Store(wk.total)
				return true
			}
		}
		o := wk.gen.next()
		timed := wk.traced
		switch o.kind {
		case opRQ:
			timed = true
		case opInsert, opDelete:
			wk.updates++
			timed = timed || wk.updates%updateSampleEvery == 0
		}
		var t0 int64
		if timed {
			t0 = nanos()
		}
		switch o.kind {
		case opInsert:
			ok := h.Insert(o.key, o.key)
			if timed {
				wk.record(o.kind, t0, nanos())
			}
			if ok {
				wk.succeeded++
			}
		case opDelete:
			ok := h.Delete(o.key)
			if timed {
				wk.record(o.kind, t0, nanos())
			}
			if ok {
				wk.succeeded++
			}
		case opContains:
			v, ok := h.Contains(o.key)
			if timed {
				wk.record(o.kind, t0, nanos())
			}
			if ok && v != o.key {
				wk.fail("Contains(%d) returned value %d", o.key, v)
			}
		case opRQ:
			res := h.RangeQuery(o.key, o.hi)
			wk.record(o.kind, t0, nanos())
			if err := checkRQ(res, o.key, o.hi); err != nil {
				wk.fail("RangeQuery(%d, %d): %v", o.key, o.hi, err)
			}
			wk.rqKeys += uint64(len(res))
		}
		wk.counts[o.kind]++
		wk.total++
		if wk.total%256 == 0 || o.kind == opRQ {
			wk.published.Store(wk.total)
		}
	}
}

// record files one timed call, after its clock has stopped.
func (wk *worker) record(class int, t0, t1 int64) {
	wk.lat[class].add(uint32(t1 - t0))
	if !wk.traced {
		return
	}
	wk.busy[class] += t1 - t0
	if class != opRQ {
		wk.points++
		if wk.points%spanSampleEvery != 0 {
			return
		}
	}
	wk.spans.add(span{start: t0, end: t1, class: uint8(class)})
}

// checkRQ verifies a range-query result: ascending without duplicates,
// inside [lo, hi], and every value equal to its key (the harness only ever
// stores (k, k)).
func checkRQ(res []ebrrq.KV, lo, hi int64) error {
	prev := lo - 1
	for i, kv := range res {
		if kv.Key <= prev || kv.Key > hi {
			return fmt.Errorf("result[%d] key %d out of order or outside [%d, %d] (previous %d)", i, kv.Key, lo, hi, prev)
		}
		if kv.Value != kv.Key {
			return fmt.Errorf("result[%d] key %d carries value %d", i, kv.Key, kv.Value)
		}
		prev = kv.Key
	}
	return nil
}

// passResult is what one pass reports to the parent process.
type passResult struct {
	Pass int

	Attempted uint64
	Failed    uint64
	Failures  []string

	// E holds the end-to-end metrics by name; Layer the per-layer metrics
	// this pass could measure (runtime.* and harness.* in every pass, the
	// rest in the traced pass only).
	E     map[string]float64
	Layer map[string]float64
	Notes []string
}

// runtimeCounters are the process-wide readings taken at both edges of the
// measured window.
type runtimeCounters struct {
	mem        runtime.MemStats
	gcCPU, cpu float64 // cumulative CPU seconds
}

func readRuntime() runtimeCounters {
	var rc runtimeCounters
	runtime.ReadMemStats(&rc.mem)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		rc.gcCPU, rc.cpu = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return rc
}

// maxPauseNs returns the longest GC pause among the cycles between a and b.
func maxPauseNs(a, b *runtime.MemStats) uint64 {
	var max uint64
	n := b.NumGC - a.NumGC
	if n > uint32(len(b.PauseNs)) {
		n = uint32(len(b.PauseNs))
	}
	for i := uint32(0); i < n; i++ {
		if p := b.PauseNs[(b.NumGC-1-i)%uint32(len(b.PauseNs))]; p > max {
			max = p
		}
	}
	return max
}

// passConfig selects one pass; it is what the parent hands a child process.
type passConfig struct {
	workload *workload
	seed     int64
	pass     int
	warmup   time.Duration
	measure  time.Duration
	traced   bool
}

// runPass builds the workload's set, warms it, measures it and reports.
func runPass(cfg passConfig) (*passResult, error) {
	w := cfg.workload
	deadline := armDeadline(fmt.Sprintf("%s pass %d", w.name, cfg.pass), setupAllowance)
	defer deadline.Stop()

	var h hooks
	if cfg.traced {
		h.metrics = obs.NewRegistry(maxThreads)
		h.trace = trace.NewRecorder(trace.Config{EventsPerRing: 1024})
	}

	setupStart := time.Now()
	tgt, err := w.build(w.keyRange, h)
	if err != nil {
		return nil, err
	}
	if err := tgt.prefill(cfg.seed, w.keyRange); err != nil {
		return nil, err
	}
	runtime.GC()
	setupS := time.Since(setupStart).Seconds()
	deadline.Reset(cfg.warmup + cfg.measure + livenessSlack)

	workers := make([]*worker, numWorkers)
	for i := range workers {
		if workers[i], err = newWorker(i, w, tgt, cfg.seed, cfg.traced); err != nil {
			return nil, err
		}
	}

	var phase atomic.Uint32 // phaseWarm
	var wg sync.WaitGroup
	errs := make([]error, numWorkers)
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			errs[i] = wk.run(&phase)
		}(i, wk)
	}
	time.Sleep(cfg.warmup)
	// Every pass enters its window at the same point of the collector's
	// cycle, so how many cycles a window holds does not depend on where the
	// warm-up happened to leave the heap.
	runtime.GC()
	var snap0 obs.Snapshot
	var limboPeak limboSampler
	if cfg.traced {
		snap0 = h.metrics.Snapshot()
		limboPeak.start(tgt)
	}
	rc0 := readRuntime()
	phase.Store(phaseMeasure)
	t0 := time.Now()

	// One reading of the workers' published totals per second, taken by this
	// goroutine between sleeps, gives the within-pass windows without a
	// sampler goroutine beside the workers.
	var windows []float64
	last := publishedTotal(workers)
	for elapsed := time.Second; elapsed <= cfg.measure; elapsed += time.Second {
		time.Sleep(time.Until(t0.Add(elapsed)))
		now := publishedTotal(workers)
		windows = append(windows, float64(now-last))
		last = now
	}
	time.Sleep(time.Until(t0.Add(cfg.measure)))

	phase.Store(phaseStop)
	wg.Wait()
	rc1 := readRuntime()
	var snap obs.Snapshot
	if cfg.traced {
		limboPeak.stop()
		snap = h.metrics.Snapshot().Sub(snap0)
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	res := &passResult{Pass: cfg.pass, E: map[string]float64{}, Layer: map[string]float64{}}
	agg := aggregate(workers)
	res.Attempted, res.Failed, res.Failures = agg.attempted, agg.failed, agg.failures

	ops := float64(agg.ops())
	res.E["setup_s"] = setupS
	res.E["ops_per_s"] = agg.rate(opInsert, opDelete, opContains, opRQ)
	res.E["update_ops_per_s"] = agg.rate(opInsert, opDelete)
	res.E["rq_per_s"] = agg.rate(opRQ)
	updLat := append(toFloats(agg.lat[opInsert]), toFloats(agg.lat[opDelete])...)
	sort.Float64s(updLat)
	rqLat := toFloats(agg.lat[opRQ])
	sort.Float64s(rqLat)
	res.E["update_p50_ns"] = median(updLat)
	res.E["rq_p50_us"] = median(rqLat) / 1e3
	res.E["alloc_bytes_per_op"] = ratio(float64(rc1.mem.TotalAlloc-rc0.mem.TotalAlloc), ops)

	res.Layer["runtime.gc_cycles"] = float64(rc1.mem.NumGC - rc0.mem.NumGC)
	res.Layer["runtime.gc_cpu_share"] = ratio(rc1.gcCPU-rc0.gcCPU, rc1.cpu-rc0.cpu)
	res.Layer["runtime.gc_pause_max_us"] = float64(maxPauseNs(&rc0.mem, &rc1.mem)) / 1e3
	res.Layer["harness.window_cv"] = cv(windows)
	res.Layer["harness.samples_update"] = float64(len(updLat))
	res.Layer["harness.samples_rq"] = float64(len(rqLat))

	if cfg.traced {
		window := float64(agg.end-agg.start) / 1e9
		setLayer(res, agg, updLat, rqLat)
		obsLayer(res, snap, agg, window)
		res.Layer["epoch.peak_limbo_nodes"] = float64(limboPeak.peakNodes)
		res.Layer["epoch.peak_limbo_bytes"] = float64(limboPeak.peakBytes)
		nodes, _ := tgt.limbo()
		res.Layer["epoch.end_limbo_nodes"] = float64(nodes)
		if err := writeSpans(cfg, workers, agg.start); err != nil {
			return nil, err
		}
	}

	// The latency and span buffers are the harness's, not the set's: drop
	// them before the heap reading so live_heap_mb is the set, its limbo
	// lists and its bundle entries.
	for _, wk := range workers {
		wk.lat = [numClasses]*sampler[uint32]{}
		wk.spans = nil
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.E["live_heap_mb"] = float64(after.HeapAlloc) / (1 << 20)
	res.Layer["runtime.heap_objects"] = float64(after.HeapObjects)

	if cfg.traced {
		deadline.Reset(probeAllowance)
		for _, wk := range workers {
			wk.h.Close()
		}
		runProbes(res, w, tgt, cfg.seed)
	}
	runtime.KeepAlive(tgt)
	return res, nil
}

func publishedTotal(workers []*worker) uint64 {
	var sum uint64
	for _, wk := range workers {
		sum += wk.published.Load()
	}
	return sum
}

// totals merges the workers' measured windows.
type totals struct {
	counts     [numClasses]uint64
	rates      [numClasses]float64 // per second, summed over workers
	busy       [numClasses]int64
	lat        [numClasses][]uint32
	succeeded  uint64
	rqKeys     uint64
	attempted  uint64
	failed     uint64
	failures   []string
	start, end int64 // earliest start, latest end
}

// aggregate sums the workers. Each worker's rate is taken over its own
// window (from when it saw the measure phase to when it saw the stop), so
// an operation in flight at either edge does not skew the quotient.
func aggregate(workers []*worker) *totals {
	a := &totals{start: workers[0].start, end: workers[0].end}
	for _, wk := range workers {
		secs := float64(wk.end-wk.start) / 1e9
		for c := range wk.counts {
			a.counts[c] += wk.counts[c]
			a.rates[c] += ratio(float64(wk.counts[c]), secs)
			a.busy[c] += wk.busy[c]
			if s := wk.lat[c]; s != nil {
				a.lat[c] = append(a.lat[c], s.buf...)
			}
		}
		a.succeeded += wk.succeeded
		a.rqKeys += wk.rqKeys
		a.failed += wk.failed
		a.failures = append(a.failures, wk.failures...)
		if wk.start < a.start {
			a.start = wk.start
		}
		if wk.end > a.end {
			a.end = wk.end
		}
	}
	// A panicking operation never reaches the counts; it was still attempted.
	a.attempted = a.ops() + a.failed
	return a
}

func (a *totals) ops() uint64 {
	var n uint64
	for _, c := range a.counts {
		n += c
	}
	return n
}

func (a *totals) rate(classes ...int) float64 {
	var r float64
	for _, c := range classes {
		r += a.rates[c]
	}
	return r
}

// limboSampler tracks the peak of the set's unreclaimed nodes and bytes at a
// 1 ms period. It runs in the traced pass only: the untraced passes have no
// goroutine beside the two workers.
type limboSampler struct {
	peakNodes, peakBytes int64
	quit, done           chan struct{}
}

func (s *limboSampler) start(tgt *target) {
	s.quit, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			nodes, bytes := tgt.limbo()
			if nodes > s.peakNodes {
				s.peakNodes = nodes
			}
			if bytes > s.peakBytes {
				s.peakBytes = bytes
			}
		}
	}()
}

// stop ends the sampler; the peaks are safe to read once it returns.
func (s *limboSampler) stop() {
	close(s.quit)
	<-s.done
}
