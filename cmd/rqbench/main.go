// Command rqbench runs the mixed benchmark matrix (update-heavy and
// RQ-heavy points) across data structures, provider techniques and thread
// counts, writes the machine-readable BENCH_rq.json report, and — when
// given a committed baseline — fails if throughput regressed beyond the gate.
// `make bench-quick` and the CI bench-smoke job are thin wrappers
// around this command.
//
//	rqbench -out BENCH_rq.json                        # measure
//	rqbench -out BENCH_rq.json -baseline results/bench_rq_baseline.json
//	                                                  # measure + gate
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ebrrq"
	"ebrrq/internal/bench"
)

func main() {
	var (
		dsFlag    = flag.String("ds", "skiplist,lflist", "comma-separated structures: lflist,lazylist,skiplist,lfbst,citrus,abtree,bslack")
		techFlag  = flag.String("tech", "lock,lockfree", "comma-separated techniques: lock,htm,lockfree,unsafe")
		thrFlag   = flag.String("threads", "8", "comma-separated worker counts")
		shardFlag = flag.String("shards", "1", "comma-separated shard counts (1 = plain set)")
		rqPct     = flag.String("rq-pct", "0,10,50", "comma-separated range-query percentages (0 = pure updates)")
		technique = flag.String("technique", "ebr", "range-query technique: ebr, bundle, or both (interleaved A/B per cell)")
		rqSize    = flag.Int64("rq-size", 64, "keys spanned per range query")
		scale     = flag.Int64("scale", 10, "key-range divisor (1 = paper sizes)")
		trials    = flag.Int("trials", 3, "trials per cell (results are merged)")
		duration  = flag.Duration("duration", 200*time.Millisecond, "duration per trial")
		seed      = flag.Int64("seed", 42, "base RNG seed")
		out       = flag.String("out", "BENCH_rq.json", "output report path ('-' for stdout)")
		baseline  = flag.String("baseline", "", "baseline BENCH_rq.json to gate against (missing file: gate skipped)")
		minWith   = flag.String("min-with", "", "earlier report to fold in, keeping per-cell throughput minima (baseline floors; missing file: skipped)")
		maxRegres = flag.Float64("max-regress", 0.20, "maximum allowed throughput regression vs baseline (fraction)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		noTrace   = flag.Bool("no-trace", false, "disable the flight recorder (loses the per-phase RQ splits)")
		traceDump = flag.String("trace-dump", "", "write the final trial's flight-recorder dump to this file (analyze with rqtrace)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := bench.RQBenchCfg{
		RQSize: *rqSize, Scale: *scale,
		Trials: *trials, Duration: *duration, Seed: *seed,
		Out:     os.Stderr,
		NoTrace: *noTrace,
	}
	if *traceDump != "" {
		if *noTrace {
			fatal(fmt.Errorf("-trace-dump requires tracing (drop -no-trace)"))
		}
		f, err := os.Create(*traceDump)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote flight-recorder dump %s (analyze: rqtrace %s)\n",
				*traceDump, *traceDump)
		}()
		cfg.TraceDump = f
	}
	var err error
	if cfg.DSs, err = parseDSs(*dsFlag); err != nil {
		fatal(err)
	}
	if cfg.Techs, err = parseTechs(*techFlag); err != nil {
		fatal(err)
	}
	if cfg.Threads, err = parseInts(*thrFlag); err != nil {
		fatal(err)
	}
	if cfg.Shards, err = parseInts(*shardFlag); err != nil {
		fatal(err)
	}
	if cfg.RQPcts, err = parsePcts(*rqPct); err != nil {
		fatal(err)
	}
	if cfg.Techniques, err = parseTechniques(*technique); err != nil {
		fatal(err)
	}

	warnSingleProc()

	rep, err := bench.RunRQBench(cfg)
	if err != nil {
		fatal(err)
	}

	if *minWith != "" {
		if f, err := os.Open(*minWith); err == nil {
			prev, err := bench.ReadRQReport(f)
			f.Close()
			if err != nil {
				fatal(fmt.Errorf("parsing -min-with %s: %w", *minWith, err))
			}
			if msgs := bench.RQEnvMismatch(prev, rep); len(msgs) > 0 {
				fmt.Fprintf(os.Stderr, "-min-with %s is from a different host shape; skipped\n", *minWith)
			} else {
				rep = bench.MinRQReports(rep, prev)
				fmt.Fprintf(os.Stderr, "folded per-cell minima from %s\n", *minWith)
			}
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}

	if *out == "-" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d points)\n", *out, len(rep.Points))
	}

	if *baseline != "" {
		f, err := os.Open(*baseline)
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "baseline %s not found; regression gate skipped\n", *baseline)
			return
		}
		if err != nil {
			fatal(err)
		}
		base, err := bench.ReadRQReport(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("parsing baseline %s: %w", *baseline, err))
		}
		if msgs := bench.RQEnvMismatch(base, rep); len(msgs) > 0 {
			fmt.Fprintln(os.Stderr, "########################################################")
			fmt.Fprintln(os.Stderr, "# WARNING: baseline was measured on a different host    #")
			fmt.Fprintln(os.Stderr, "# shape; throughput comparison would be meaningless.    #")
			fmt.Fprintln(os.Stderr, "# REGRESSION GATE SKIPPED.                              #")
			fmt.Fprintln(os.Stderr, "########################################################")
			for _, m := range msgs {
				fmt.Fprintln(os.Stderr, "  env mismatch -", m)
			}
			fmt.Fprintln(os.Stderr, "refresh the baseline on this host with `make rebaseline`")
			return
		}
		if msgs := bench.CompareRQReports(base, rep, *maxRegres); len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintln(os.Stderr, "REGRESSION: "+m)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "regression gate passed (max allowed %.0f%%)\n", 100**maxRegres)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rqbench:", err)
	os.Exit(2)
}

func parseDSs(s string) ([]ebrrq.DataStructure, error) {
	var out []ebrrq.DataStructure
	for _, part := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(part)) {
		case "lflist":
			out = append(out, ebrrq.LFList)
		case "lazylist":
			out = append(out, ebrrq.LazyList)
		case "skiplist":
			out = append(out, ebrrq.SkipList)
		case "lfbst":
			out = append(out, ebrrq.LFBST)
		case "citrus":
			out = append(out, ebrrq.Citrus)
		case "abtree":
			out = append(out, ebrrq.ABTree)
		case "bslack":
			out = append(out, ebrrq.BSlack)
		case "":
		default:
			return nil, fmt.Errorf("unknown data structure %q", part)
		}
	}
	return out, nil
}

func parseTechs(s string) ([]ebrrq.Mode, error) {
	var out []ebrrq.Mode
	for _, part := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(part)) {
		case "lock":
			out = append(out, ebrrq.Lock)
		case "htm":
			out = append(out, ebrrq.HTM)
		case "lockfree", "lock-free":
			out = append(out, ebrrq.LockFree)
		case "unsafe":
			out = append(out, ebrrq.Unsafe)
		case "":
		default:
			return nil, fmt.Errorf("unknown technique %q", part)
		}
	}
	return out, nil
}

// parsePcts is parseInts minus the n > 0 requirement: rq-pct 0 is a
// legitimate (pure-update) benchmark point.
func parsePcts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 100 {
			return nil, fmt.Errorf("bad percentage %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseTechniques(s string) ([]ebrrq.Technique, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "ebr", "":
		return []ebrrq.Technique{ebrrq.EBR}, nil
	case "bundle":
		return []ebrrq.Technique{ebrrq.Bundle}, nil
	case "both":
		// EBR first, then bundle, inside each cell: the interleaving is the
		// point — both techniques of a cell see the same host conditions.
		return []ebrrq.Technique{ebrrq.EBR, ebrrq.Bundle}, nil
	default:
		return nil, fmt.Errorf("bad -technique %q (want ebr, bundle or both)", s)
	}
}

// warnSingleProc makes the dead-counter trap impossible to miss: with a
// single P there is no goroutine overlap, so every contention-path counter
// (ts_shared, fence_shared) reads zero regardless of how the code would
// behave under load.
func warnSingleProc() {
	if runtime.GOMAXPROCS(0) > 1 {
		return
	}
	fmt.Fprintln(os.Stderr, "########################################################")
	fmt.Fprintln(os.Stderr, "# WARNING: GOMAXPROCS=1 — contention counters are dead. #")
	fmt.Fprintln(os.Stderr, "########################################################")
	fmt.Fprintln(os.Stderr, "  "+bench.SingleProcNote)
	fmt.Fprintln(os.Stderr, "  rerun with GOMAXPROCS>=2 to measure sharing")
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
