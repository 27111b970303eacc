// Command rqbench runs the mixed benchmark matrix (update-heavy and
// RQ-heavy points) across data structures, modes, thread counts, shard
// counts and range-query techniques, and prints one line per cell. It is an
// A/B driver, not a gate: the techniques of a cell run back to back in one
// process, so a pair sees the same host conditions. The repo's regression
// benchmark is BENCHMARK.json + benchmark/.
//
//	rqbench -technique both -ds lazylist,skiplist -tech lock   # EBR vs bundle
//	rqbench -shards 1,4 -ds skiplist                           # plain vs sharded
//	rqbench -threads 4 -trials 1 -trace-dump /tmp/x.trace      # feed rqtrace
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
		Out:     os.Stdout,
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

	if runtime.GOMAXPROCS(0) == 1 {
		// With a single P goroutines never overlap inside the provider, so
		// the contention-path counters read zero whatever the code would do
		// under load.
		fmt.Fprintln(os.Stderr, "rqbench: WARNING: GOMAXPROCS=1 — ts_shared and the other contention counters are dead; rerun with GOMAXPROCS>=2 to measure sharing")
	}

	if _, err := bench.RunRQBench(cfg); err != nil {
		fatal(err)
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
