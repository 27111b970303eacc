package dstest

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebrrq/internal/epoch"
	"ebrrq/internal/fault"
	"ebrrq/internal/rqprov"
	"ebrrq/internal/trace"
	"ebrrq/internal/validate"
)

// ChaosCfg parameterizes RunChaos.
type ChaosCfg struct {
	Updaters  int           // threads doing 50% insert / 50% delete (default 3)
	RQThreads int           // threads doing 100% range queries (default 2)
	KeySpace  int64         // default 128
	RQRange   int64         // default 32
	Duration  time.Duration // default 250ms
	Seed      int64
	// Faults maps failpoint sites to the actions armed for the run. Every
	// site must be hit at least once or the run fails (a site that never
	// fires is testing nothing).
	Faults map[string]fault.Action
}

// ChaosStats reports what a chaos run observed.
type ChaosStats struct {
	// Crashes counts injected panics recovered at worker top level (each
	// followed by a Deregister and a slot-reusing re-registration).
	Crashes int
	// Hits and Fired record the per-site failpoint counts at run end.
	Hits, Fired map[string]uint64
	// TraceDump is the path of the flight-recorder dump, written when the
	// watchdog flagged a stall or validation failed ("" if neither
	// happened). Analyze it with cmd/rqtrace.
	TraceDump string
}

// TraceDumpDir returns where chaos stall dumps go: $EBRRQ_TRACE_DIR if set
// (CI exports it so failed runs can upload dumps as artifacts), else the
// test's temporary directory.
func TraceDumpDir(t *testing.T) string {
	if dir := os.Getenv("EBRRQ_TRACE_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			return dir
		}
	}
	return t.TempDir()
}

// WriteTraceDump snapshots the recorder into dir under a name derived from
// the test and reason, logs the path, and returns it.
func WriteTraceDump(t *testing.T, rec *trace.Recorder, dir, reason string) string {
	name := strings.ReplaceAll(t.Name(), "/", "_") + "-" + reason + ".trace"
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Errorf("chaos: creating trace dump: %v", err)
		return ""
	}
	if _, err := rec.Snapshot().WriteTo(f); err != nil {
		t.Errorf("chaos: writing trace dump: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("chaos: closing trace dump: %v", err)
	}
	t.Logf("chaos: flight-recorder dump written to %s (analyze with: go run ./cmd/rqtrace %s)", path, path)
	return path
}

// RunChaos is RunValidated under injected faults: a mixed workload runs with
// the configured failpoints armed, worker goroutines treat injected panics
// as thread crashes (deregister, then re-register — the thread count is
// exactly the worker count plus one, so every recovery exercises slot
// reuse), and afterwards the harness verifies the stack degraded gracefully:
// every range query replays correctly against the recorded update history,
// the epoch still advances, and draining reclaims every node the crashed and
// exited threads abandoned in limbo (LimboSize returns to zero).
//
// Runs are skipped in production builds (no failpoints compiled in).
func RunChaos(t *testing.T, mode rqprov.Mode, limboSorted bool, build Builder, cfg ChaosCfg) ChaosStats {
	t.Helper()
	if !fault.Enabled {
		t.Skip("chaos runs require -tags failpoints")
	}
	if mode == rqprov.ModeUnsafe {
		t.Fatal("dstest: RunChaos requires a linearizable mode")
	}
	if cfg.Updaters == 0 {
		cfg.Updaters = 3
	}
	if cfg.RQThreads == 0 {
		cfg.RQThreads = 2
	}
	if cfg.KeySpace == 0 {
		cfg.KeySpace = 128
	}
	if cfg.RQRange == 0 {
		cfg.RQRange = 32
	}
	if cfg.Duration == 0 {
		cfg.Duration = 250 * time.Millisecond
	}
	n := cfg.Updaters + cfg.RQThreads + 1
	checker := validate.NewChecker(n)
	// The flight recorder runs through every chaos workload; if the run
	// wedges or fails validation the dump is the post-mortem.
	rec := trace.NewRecorder(trace.Config{EventsPerRing: 1024})
	p := rqprov.New(rqprov.Config{
		MaxThreads:  n,
		Mode:        mode,
		LimboSorted: limboSorted,
		MaxAnnounce: 64,
		Recorder:    checker,
		Trace:       rec,
	})
	s := build(p)

	stats := ChaosStats{
		Hits:  map[string]uint64{},
		Fired: map[string]uint64{},
	}
	// dumpPath is written at most once, but possibly from the watchdog
	// goroutine; the mutex pairs that write with the read at return.
	var dumpOnce sync.Once
	var dumpMu sync.Mutex
	var dumpPath string
	dump := func(reason string) {
		dumpOnce.Do(func() {
			p := WriteTraceDump(t, rec, TraceDumpDir(t), reason)
			dumpMu.Lock()
			dumpPath = p
			dumpMu.Unlock()
		})
	}
	// A watchdog rides along: if any thread wedges long enough to pin the
	// epoch, the recorder state is captured right at the stall edge (the
	// injected faults themselves only delay for microseconds, so a flag
	// here is a real hang).
	wd := p.Domain().StartWatchdog(epoch.WatchdogConfig{
		OnStall: func([]epoch.Stall) { dump("stall") },
	})
	defer wd.Stop()

	// Prefill before any fault is armed; the spare slot stays registered
	// (quiescent) so the workers plus the spare fill the provider exactly.
	spare := p.Register()
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	for inserted := int64(0); inserted < cfg.KeySpace/2; {
		k := rng.Int63n(cfg.KeySpace)
		if s.Insert(spare, k, k*10) {
			inserted++
		}
	}

	fault.Reset()
	for name, act := range cfg.Faults {
		fault.Arm(name, act)
	}

	var crashes atomic.Int64
	// runOp executes one operation, converting an injected panic into a
	// crash signal; any other panic is a real bug and propagates.
	runOp := func(th *rqprov.Thread, op func(th *rqprov.Thread)) (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(fault.PanicError); !ok {
					panic(r)
				}
				th.Deregister()
				crashed = true
			}
		}()
		op(th)
		return false
	}
	// reviveLoop runs a worker until stop, replacing its thread after every
	// crash. Re-registration can only succeed by reusing a released slot.
	revive := func(stop *atomic.Bool, op func(th *rqprov.Thread)) {
		th := p.Register()
		for !stop.Load() {
			if runOp(th, op) {
				crashes.Add(1)
				for {
					nt, err := p.TryRegister()
					if err == nil {
						th = nt
						break
					}
					runtime.Gosched()
				}
			}
		}
		th.Deregister() // orphan our limbo so the drain below reclaims it
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < cfg.Updaters; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			revive(&stop, func(th *rqprov.Thread) {
				k := r.Int63n(cfg.KeySpace)
				if r.Intn(2) == 0 {
					s.Insert(th, k, r.Int63n(1<<30))
				} else {
					s.Delete(th, k)
				}
			})
		}(cfg.Seed + int64(w))
	}
	for w := 0; w < cfg.RQThreads; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			revive(&stop, func(th *rqprov.Thread) {
				width := cfg.RQRange
				lo := int64(0)
				if width >= cfg.KeySpace {
					width = cfg.KeySpace
				} else {
					lo = r.Int63n(cfg.KeySpace - width)
				}
				res := s.RangeQuery(th, lo, lo+width-1)
				checker.AddRQ(th.ID(), th.LastRQTS(), lo, lo+width-1, res)
			})
		}(cfg.Seed + 1000 + int64(w))
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()

	stats.Crashes = int(crashes.Load())
	for name := range cfg.Faults {
		stats.Hits[name] = fault.Hits(name)
		stats.Fired[name] = fault.Fired(name)
		if stats.Hits[name] == 0 {
			t.Errorf("chaos: failpoint %q was never reached — the fault tested nothing", name)
		}
	}
	fault.Reset()

	// Degraded is fine; broken is not: every range query must replay.
	if cfg.RQThreads > 0 && checker.RQs() == 0 {
		dump("norqs")
		t.Fatal("chaos: no range queries completed")
	}
	if err := checker.Check(); err != nil {
		dump("validation")
		t.Fatalf("chaos validation failed after %d events / %d rqs (%d crashes): %v",
			checker.Events(), checker.RQs(), stats.Crashes, err)
	}

	// Recovery: with every worker deregistered, the spare thread alone must
	// be able to advance the epoch and the orphan sweeps must reclaim every
	// abandoned limbo node.
	advances := p.Domain().Advances()
	for i := 0; i < 20*32; i++ {
		spare.StartOp()
		spare.EndOp()
	}
	if p.Domain().Advances() == advances {
		dump("wedged")
		t.Fatal("chaos: epoch wedged after the run — a dead thread still pins it")
	}
	if limbo := p.Domain().LimboSize(); limbo != 0 {
		dump("limbo-leak")
		t.Fatalf("chaos: %d nodes stuck in limbo after drain (crashed threads leaked)", limbo)
	}
	wd.Stop() // join the watchdog before reading what it may have dumped
	dumpMu.Lock()
	stats.TraceDump = dumpPath
	dumpMu.Unlock()
	return stats
}
