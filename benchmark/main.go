// Command benchmark is the repository's benchmark: four closed-loop
// workloads on in-process sets, eight end-to-end metrics per workload, and a
// traced pass that attributes them to layers. See README.md beside this
// file for the glossary and BENCHMARK.json at the repository root for the
// contract.
//
//	bash benchmark/run.sh -seed 7                     # everything, all workloads
//	bash benchmark/run.sh -workload scan-abtree-lf -seed 7 -trace 0
//	bash benchmark/run.sh -selfcheck                  # two runs, compared
//
// One run of a workload is three passes, each in a fresh process (this
// binary re-executes itself with -child): build and prefill (timed), a
// discarded warm-up, the measured window, a final GC for the heap reading.
// Every end-to-end metric is the median of the passes. With -trace 1 a
// fourth, traced pass follows and gives the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

const (
	passesPerRun = 3
	warmup       = 2 * time.Second
	// minSeconds keeps a measured pass at five seconds or more: below that a
	// window holds too few collector cycles and one-second windows to mean
	// anything.
	minSeconds = 5 * passesPerRun
	// outDir receives the traced pass's span files; it carries its own
	// .gitignore.
	outDir = "benchmark/out"
)

func main() {
	// The shared host has two cores and the load is two clients; pinning the
	// scheduler to that keeps a larger machine from changing what is measured.
	runtime.GOMAXPROCS(numWorkers)

	var (
		name      = flag.String("workload", "", "workload to run (default: all, their passes interleaved)")
		seed      = flag.Int64("seed", 1, "seed for every generated key and operation")
		seconds   = flag.Int("seconds", 21, "measured seconds per workload, split evenly over the run's three passes")
		traceRun  = flag.Int("trace", 1, "1: follow the three passes with a traced one and put the per-layer metrics in the result line; 0: end-to-end metrics only")
		selfcheck = flag.Bool("selfcheck", false, "run all workloads twice and compare the end-to-end medians against their bounds")
		child     = flag.Bool("child", false, "internal: run one pass in this process")
		pass      = flag.Int("pass", 0, "internal: pass index")
		traced    = flag.Bool("traced", false, "internal: this pass is the traced one")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traceRun != 0 && *traceRun != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *seconds < minSeconds {
		fatal(fmt.Errorf("-seconds %d: a run needs at least %d, five per pass", *seconds, minSeconds))
	}
	if *child {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		res, err := runPass(passConfig{workload: w, seed: *seed, pass: *pass,
			warmup: warmup, measure: passLength(*seconds), traced: *traced})
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	r := runner{seed: *seed, seconds: *seconds, measure: passLength(*seconds)}
	if *selfcheck {
		os.Exit(r.selfcheck())
	}
	ws := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		ws = []workload{*w}
	}
	os.Exit(r.report(r.run(ws, *traceRun == 1), *traceRun == 1))
}

// passLength is one pass's measured window: the run's seconds split evenly.
func passLength(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / passesPerRun
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runner carries one invocation's settings.
type runner struct {
	seed    int64
	seconds int
	measure time.Duration
}

// workloadRun collects everything one run learned about one workload.
type workloadRun struct {
	w        *workload
	untraced []*passResult
	traced   *passResult
	errs     []error // crashed passes and a failed validation replay
}

// run executes the passes: three untraced ones interleaved across workloads
// (W1 W2 ... W1 W2 ...) so each workload's samples are spread over the whole
// timeline, then per workload a traced pass, if asked for, and a validation
// replay.
func (r *runner) run(ws []workload, traced bool) []*workloadRun {
	runs := make([]*workloadRun, len(ws))
	for i := range ws {
		runs[i] = &workloadRun{w: &ws[i]}
	}
	for p := 0; p < passesPerRun; p++ {
		for _, run := range runs {
			res, err := r.spawn(run.w, p, false)
			if err != nil {
				run.errs = append(run.errs, err)
				continue
			}
			run.untraced = append(run.untraced, res)
		}
	}
	for _, run := range runs {
		if traced {
			res, err := r.spawn(run.w, passesPerRun, true)
			if err != nil {
				run.errs = append(run.errs, err)
			}
			run.traced = res
		}
		if err := replay(run.w, r.seed); err != nil {
			run.errs = append(run.errs, fmt.Errorf("%s: validation replay: %w", run.w.name, err))
		}
	}
	return runs
}

// spawn runs one pass in a fresh process and decodes its report.
func (r *runner) spawn(w *workload, pass int, traced bool) (*passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The child enforces its own deadlines with a goroutine dump; this one
	// only catches a child too wedged to do that.
	limit := setupAllowance + warmup + r.measure + livenessSlack + probeAllowance + 10*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child",
		"-workload", w.name,
		"-seed", strconv.FormatInt(r.seed, 10),
		"-seconds", strconv.Itoa(r.seconds),
		"-pass", strconv.Itoa(pass),
		"-traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s pass %d: %w", w.name, pass, err)
	}
	res := new(passResult)
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("%s pass %d: decoding the pass report: %w", w.name, pass, err)
	}
	return res, nil
}

// summary is one workload's reported numbers.
type summary struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted uint64
	failed    uint64
	notes     []string
}

// passValues collects one named value from each pass.
func passValues(passes []*passResult, get func(*passResult) map[string]float64, name string) []float64 {
	vs := make([]float64, 0, len(passes))
	for _, p := range passes {
		vs = append(vs, get(p)[name])
	}
	return vs
}

func e2eOf(p *passResult) map[string]float64   { return p.E }
func layerOf(p *passResult) map[string]float64 { return p.Layer }

// summarise reduces a workload's passes: end-to-end metrics to the median
// of the untraced passes, per-layer metrics to the traced pass's values
// plus the rows only the untraced passes can give.
func summarise(run *workloadRun) summary {
	s := summary{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, m := range endToEnd {
		s.e2e[m.Name] = median(passValues(run.untraced, e2eOf, m.Name))
	}
	all := run.untraced
	if run.traced != nil {
		all = append(append([]*passResult(nil), all...), run.traced)
		for k, v := range run.traced.Layer {
			s.layer[k] = v
		}
		s.layer["trace.overhead_ratio"] = ratio(run.traced.E["ops_per_s"], s.e2e["ops_per_s"])
		s.notes = run.traced.Notes
	}
	for _, name := range []string{"runtime.gc_cycles", "runtime.gc_cpu_share", "runtime.gc_pause_max_us",
		"runtime.heap_objects", "harness.window_cv", "harness.samples_update", "harness.samples_rq"} {
		s.layer[name] = median(passValues(run.untraced, layerOf, name))
	}
	s.layer["harness.pass_spread"] = spread(passValues(run.untraced, e2eOf, "ops_per_s"))
	for _, p := range all {
		s.attempted += p.Attempted
		s.failed += p.Failed
		for _, f := range p.Failures {
			s.notes = append(s.notes, fmt.Sprintf("pass %d failure: %s", p.Pass, f))
		}
	}
	return s
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable result: the last line of standard
// output. Workload is set only when several workloads share one invocation.
type resultLine struct {
	Workload  string                 `json:"workload,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// check lists the metrics the tables name that the summary lacks and the
// ones it carries that no table names: either would put a number nobody
// measured, or hide one somebody did, behind a name in the result line.
func (s summary) check(traced bool) []error {
	var errs []error
	compare := func(kind string, defs []metricDef, vals map[string]float64) {
		named := make(map[string]bool, len(defs))
		for _, m := range defs {
			named[m.Name] = true
			if _, ok := vals[m.Name]; !ok {
				errs = append(errs, fmt.Errorf("%s metric %s was not measured", kind, m.Name))
			}
		}
		for name := range vals {
			if !named[name] {
				errs = append(errs, fmt.Errorf("%s metric %s is not in the metric table", kind, name))
			}
		}
	}
	compare("end-to-end", endToEnd, s.e2e)
	if traced {
		compare("per-layer", perLayer, s.layer)
	}
	return errs
}

// line builds the machine-readable result from the summary: the per-layer
// metrics of a traced run, the end-to-end metrics of an untraced one.
func (s summary) line(correct, traced bool) resultLine {
	l := resultLine{Correct: correct, Attempted: s.attempted, Failed: s.failed,
		Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, s.e2e
	if traced {
		defs, vals = perLayer, s.layer
	}
	for _, m := range defs {
		l.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	return l
}

// report prints each workload's metrics by name with units (the end-to-end
// ones always, the per-layer ones of a traced run), then one result line per
// workload, and returns the process exit code: non-zero when any operation
// failed, a pass crashed or hung, or the validation replay found a range
// query that is not linearizable.
func (r *runner) report(runs []*workloadRun, traced bool) int {
	code := 0
	var lines []resultLine
	for _, run := range runs {
		s := summarise(run)
		run.errs = append(run.errs, s.check(traced)...)
		correct := s.failed == 0 && len(run.errs) == 0
		line := s.line(correct, traced)
		if len(runs) > 1 {
			line.Workload = run.w.name
		}
		fmt.Printf("== %s  (seed %d, %d passes x %.1f s measured", run.w.name, r.seed, len(run.untraced), r.measure.Seconds())
		if run.traced != nil {
			fmt.Printf(" + 1 traced")
		}
		fmt.Printf(", %d clients, closed loop)\n", numWorkers)
		for _, m := range endToEnd {
			fmt.Printf("  %-32s %16.4f %-6s passes %v\n", m.Name, s.e2e[m.Name], m.Unit,
				formatPasses(passValues(run.untraced, e2eOf, m.Name)))
		}
		if traced {
			for _, m := range perLayer {
				fmt.Printf("  %-32s %16.4f %s\n", m.Name, s.layer[m.Name], m.Unit)
			}
		}
		fmt.Printf("  operations attempted %d, failed %d; latency samples: update %.0f, rq %.0f\n",
			s.attempted, s.failed, s.layer["harness.samples_update"], s.layer["harness.samples_rq"])
		for _, n := range s.notes {
			fmt.Printf("  note: %s\n", n)
		}
		for _, e := range run.errs {
			fmt.Printf("  ERROR: %v\n", e)
		}
		if !correct {
			code = 1
		}
		lines = append(lines, line)
	}
	for _, line := range lines {
		b, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
	return code
}

func formatPasses(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatFloat(v, 'g', 5, 64)
	}
	return out
}

// selfcheck runs every workload twice, back to back, and compares the two
// sets of end-to-end medians: two runs of the same code must agree within
// each metric's own bound, or the bound cannot tell a regression from noise.
func (r *runner) selfcheck() int {
	var sums [2][]summary
	code := 0
	for i := range sums {
		for _, run := range r.run(workloads, false) {
			s := summarise(run)
			if s.failed > 0 || len(run.errs) > 0 {
				fmt.Printf("run %d, %s: %d failed operations, errors: %v\n", i+1, run.w.name, s.failed, errors.Join(run.errs...))
				code = 1
			}
			sums[i] = append(sums[i], s)
		}
	}
	fmt.Printf("%-20s %-20s %14s %14s %8s %6s\n", "workload", "metric", "run 1", "run 2", "gap", "bound")
	for wi, w := range workloads {
		for _, m := range endToEnd {
			a, b := sums[0][wi].e2e[m.Name], sums[1][wi].e2e[m.Name]
			gap := math.Abs(ratio(b-a, a))
			verdict := ""
			if gap > m.Bound {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-20s %-20s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.name, m.Name, a, b, 100*gap, 100*m.Bound, verdict)
		}
	}
	return code
}
