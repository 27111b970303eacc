package dstest_test

import (
	"testing"
	"time"

	"bytes"
	"os"
	"strings"

	"ebrrq"
	"ebrrq/internal/ds/abtree"
	"ebrrq/internal/ds/citrus"
	"ebrrq/internal/ds/lazylist"
	"ebrrq/internal/ds/lfbst"
	"ebrrq/internal/ds/lflist"
	"ebrrq/internal/ds/skiplist"
	"ebrrq/internal/dstest"
	"ebrrq/internal/epoch"
	"ebrrq/internal/fault"
	"ebrrq/internal/obs"
	"ebrrq/internal/rqprov"
	"ebrrq/internal/trace"
	"ebrrq/internal/validate"
)

// chaosDS describes one structure in the chaos matrices.
type chaosDS struct {
	name        string
	limboSorted bool
	build       dstest.Builder
	// lockFreeUpdates: updates take no locks, so a panic injected before the
	// linearizing CAS cannot strand a held lock and wedge other threads.
	lockFreeUpdates bool
	// rqHoldsRCU: range queries run inside an RCU read-side section
	// (Citrus); a panic mid-RQ would strand the read lock and block every
	// writer's synchronize, so RQ-panic chaos must skip it.
	rqHoldsRCU bool
}

var chaosStructures = []chaosDS{
	{name: "lflist", limboSorted: false, lockFreeUpdates: true,
		build: func(p *rqprov.Provider) dstest.Set { return lflist.New(p) }},
	{name: "lazylist", limboSorted: true,
		build: func(p *rqprov.Provider) dstest.Set { return lazylist.New(p) }},
	{name: "skiplist", limboSorted: true,
		build: func(p *rqprov.Provider) dstest.Set { return skiplist.New(p) }},
	{name: "lfbst", limboSorted: true, lockFreeUpdates: true,
		build: func(p *rqprov.Provider) dstest.Set { return lfbst.New(p) }},
	{name: "citrus", limboSorted: true, rqHoldsRCU: true,
		build: func(p *rqprov.Provider) dstest.Set { return citrus.New(p) }},
	{name: "abtree", limboSorted: true,
		build: func(p *rqprov.Provider) dstest.Set { return abtree.New(p) }},
}

func chaosModes() []rqprov.Mode {
	if testing.Short() {
		return []rqprov.Mode{rqprov.ModeLock, rqprov.ModeLockFree}
	}
	return dstest.Modes
}

func chaosDuration() time.Duration {
	if testing.Short() {
		return 150 * time.Millisecond
	}
	return 300 * time.Millisecond
}

// TestChaosDelay stretches the critical windows of every structure × mode:
// operations pause inside the EBR announcement, the limbo-bag rotation, and
// the RQ limbo sweep. Delays hold no extra state, so every structure —
// lock-based ones included — must come through with validation clean.
func TestChaosDelay(t *testing.T) {
	for _, ds := range chaosStructures {
		for _, mode := range chaosModes() {
			t.Run(ds.name+"/"+mode.String(), func(t *testing.T) {
				dstest.RunChaos(t, mode, ds.limboSorted, ds.build, dstest.ChaosCfg{
					Duration: chaosDuration(),
					Seed:     42,
					Faults: map[string]fault.Action{
						"epoch.startop.announced": fault.Delay(100 * time.Microsecond).After(50).Times(40),
						"epoch.rotate.mid":        fault.Delay(200 * time.Microsecond).Times(20),
						"rqprov.rq.limbosweep":    fault.Delay(100 * time.Microsecond).After(5).Times(40),
					},
				})
			})
		}
	}
}

// TestChaosPanicUpdate crashes updaters mid-update. Panics are injected only
// at points where no lock is held and the linearizing CAS has not happened —
// inside StartOp (after the epoch announcement) and after the deletion
// announcements — so they model a thread dying with provider state dangling
// but the structure untouched. Restricted to the structures with lock-free
// update paths; a lock-based structure would strand a held lock.
func TestChaosPanicUpdate(t *testing.T) {
	for _, ds := range chaosStructures {
		if !ds.lockFreeUpdates {
			continue
		}
		for _, mode := range chaosModes() {
			t.Run(ds.name+"/"+mode.String(), func(t *testing.T) {
				stats := dstest.RunChaos(t, mode, ds.limboSorted, ds.build, dstest.ChaosCfg{
					Duration: chaosDuration(),
					Seed:     43,
					Faults: map[string]fault.Action{
						"epoch.startop.announced": fault.Panic("crash at op start").After(400).Times(3),
						"rqprov.update.announced": fault.Panic("crash before CAS").After(150).Times(3),
					},
				})
				if stats.Crashes == 0 {
					t.Fatal("no injected crash was recovered")
				}
			})
		}
	}
}

// TestChaosPanicRQ crashes range-query threads at the RQ failpoints (after
// linearization, and mid-sweep). RQ paths hold no locks in these structures;
// Citrus is excluded because its queries run inside an RCU read-side
// section (see chaosDS.rqHoldsRCU).
func TestChaosPanicRQ(t *testing.T) {
	for _, ds := range chaosStructures {
		if ds.rqHoldsRCU {
			continue
		}
		for _, mode := range chaosModes() {
			t.Run(ds.name+"/"+mode.String(), func(t *testing.T) {
				stats := dstest.RunChaos(t, mode, ds.limboSorted, ds.build, dstest.ChaosCfg{
					Duration: chaosDuration(),
					Seed:     44,
					Faults: map[string]fault.Action{
						"rqprov.rq.started":  fault.Panic("crash after RQ linearized").After(30).Times(2),
						"rqprov.rq.annsweep": fault.Panic("crash mid announcement sweep").After(60).Times(2),
					},
				})
				if stats.Crashes == 0 {
					t.Fatal("no injected crash was recovered")
				}
			})
		}
	}
}

// TestChaosStallMidUpdate is the acceptance scenario for the stall-tolerant
// stack: a thread is force-stalled mid-update (inside the provider, after
// the epoch announcement), long enough for the watchdog to flag it and for
// limbo to grow visibly above baseline; a supervisor then deregisters the
// stalled thread, after which the epoch resumes advancing, reclamation
// drains limbo back to baseline (asserted through the observability
// snapshot), the slot is reused, and every range query validates.
func TestChaosStallMidUpdate(t *testing.T) {
	if !fault.Enabled {
		t.Skip("chaos runs require -tags failpoints")
	}
	const nThreads = 3
	checker := validate.NewChecker(nThreads)
	p := rqprov.New(rqprov.Config{
		MaxThreads: nThreads, Mode: rqprov.ModeLockFree, Recorder: checker,
	})
	s := lflist.New(p)
	reg := obs.NewRegistry(nThreads)
	p.EnableMetrics(reg)
	wd := p.Domain().StartWatchdog(epoch.WatchdogConfig{
		Interval:   time.Millisecond,
		StallAfter: 30 * time.Millisecond,
	})
	defer wd.Stop()
	hc := p.Health()

	main := p.Register()
	for k := int64(0); k < 64; k++ {
		s.Insert(main, k, k*10)
	}
	baseline := reg.Snapshot().Gauge("ebrrq_limbo_len")

	// Arm the stall and wedge a thread inside its next update, after the
	// epoch announcement — the classic DEBRA stalled-reclaimer scenario.
	act, release := fault.Stall()
	fault.Reset()
	defer fault.Reset()
	fault.Arm("rqprov.update.announced", act.Once())
	stallerDone := make(chan struct{})
	staller := p.Register()
	go func() {
		defer close(stallerDone)
		// The supervisor deregisters this thread while it is wedged, so on
		// resume its first EBR interaction panics; that is the documented
		// contract for a force-deregistered thread.
		defer func() { _ = recover() }()
		s.Insert(staller, 1000, 1)
	}()

	// The watchdog must flag the wedged thread.
	deadline := time.Now().Add(5 * time.Second)
	for len(wd.Stalls()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never flagged the stalled thread")
		}
		time.Sleep(time.Millisecond)
	}
	if err := hc.Warn(); err == nil {
		t.Fatal("health check reported no warning with a flagged stall")
	}

	// While the thread is wedged the epoch is pinned: churn hard, observe
	// at most the single advance its announcement permits, and watch limbo
	// grow past baseline.
	churn := func(n int) {
		for i := int64(0); i < int64(n); i++ {
			s.Delete(main, 2000+i)
			s.Insert(main, 2000+i, i)
			s.Delete(main, 2000+i)
		}
	}
	churn(256)
	adv := p.Domain().Advances()
	churn(512)
	if got := p.Domain().Advances() - adv; got > 1 {
		t.Fatalf("epoch advanced %d times under a stalled thread, want <= 1", got)
	}
	grown := reg.Snapshot().Gauge("ebrrq_limbo_len")
	if grown <= baseline {
		t.Fatalf("limbo did not grow under the stall: baseline %d, now %d", baseline, grown)
	}

	// Total stall >= 100ms (the acceptance bar), then recover: deregister
	// the wedged thread, then release it. Deregister-then-release on the
	// same goroutine gives the resumed thread a happens-before view of its
	// own death.
	time.Sleep(100 * time.Millisecond)
	staller.Deregister()
	release()
	<-stallerDone

	// Epoch advance resumes and reclamation returns limbo to baseline.
	adv = p.Domain().Advances()
	churn(512)
	if p.Domain().Advances() == adv {
		t.Fatal("epoch did not resume advancing after deregistration")
	}
	for i := 0; i < 64*32; i++ {
		main.StartOp()
		main.EndOp()
	}
	if got := reg.Snapshot().Gauge("ebrrq_limbo_len"); got > baseline {
		t.Fatalf("limbo did not return to baseline after recovery: baseline %d, now %d", baseline, got)
	}
	for len(wd.Stalls()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog still reports a stall after recovery")
		}
		time.Sleep(time.Millisecond)
	}
	if err := hc.Warn(); err != nil {
		t.Fatalf("health check still warning after recovery: %v", err)
	}
	if err := hc.Check(); err != nil {
		t.Fatalf("health check still failing after recovery: %v", err)
	}

	// The slot is reusable, and the whole history validates.
	reborn, err := p.TryRegister()
	if err != nil {
		t.Fatalf("TryRegister after recovery: %v", err)
	}
	if !s.Insert(reborn, 1001, 1) {
		t.Fatal("insert through the reused slot failed")
	}
	rq := s.RangeQuery(main, 0, 4000)
	checker.AddRQ(main.ID(), main.LastRQTS(), 0, 4000, rq)
	if err := checker.Check(); err != nil {
		t.Fatalf("validation failed after stall recovery: %v", err)
	}
}

// TestChaosStallTraceDump is the flight-recorder acceptance scenario: a
// thread is force-stalled mid-insert through the public ebrrq API with the
// recorder attached; the watchdog flags the stall and the harness writes a
// dump, which the rqtrace analyzer must render into a report naming the
// stalled thread and the operation it is wedged inside.
func TestChaosStallTraceDump(t *testing.T) {
	if !fault.Enabled {
		t.Skip("chaos runs require -tags failpoints")
	}
	rec := trace.NewRecorder(trace.Config{EventsPerRing: 256})
	set, err := ebrrq.NewWithOptions(ebrrq.LFList, ebrrq.LockFree, 3,
		ebrrq.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	main := set.NewThread()
	defer main.Close()
	for k := int64(0); k < 64; k++ {
		main.Insert(k, k*10)
	}

	dir := dstest.TraceDumpDir(t)
	dumped := make(chan string, 1)
	wd := set.Domain().StartWatchdog(epoch.WatchdogConfig{
		Interval:   time.Millisecond,
		StallAfter: 20 * time.Millisecond,
		OnStall: func([]epoch.Stall) {
			dumped <- dstest.WriteTraceDump(t, rec, dir, "stall")
		},
	})
	defer wd.Stop()

	// Wedge a thread inside its next insert, after the epoch announcement.
	act, release := fault.Stall()
	fault.Reset()
	defer fault.Reset()
	fault.Arm("rqprov.update.announced", act.Once())
	staller := set.NewThread()
	stallerDone := make(chan struct{})
	go func() {
		defer close(stallerDone)
		staller.Insert(1000, 1)
	}()

	var path string
	select {
	case path = <-dumped:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never flagged the stalled thread")
	}
	release()
	<-stallerDone
	staller.Close()
	if path == "" {
		t.Fatal("stall dump was not written")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := trace.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("stall dump does not parse: %v", err)
	}
	rep := trace.BuildReport(snap)
	// main registered first (slot 0), the staller second (slot 1).
	if len(rep.Stalls) == 0 || rep.Stalls[0].ThreadID != 1 {
		t.Fatalf("report stalls = %+v, want thread 1 flagged", rep.Stalls)
	}
	found := false
	for _, op := range rep.InFlight {
		if op.Op == "insert" && op.Ring == "t1" && op.Arg == 1000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("report in-flight ops = %+v, want the wedged insert of key 1000 on t1",
			rep.InFlight)
	}
	// The rendered report (what cmd/rqtrace prints) must name the culprit.
	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"STALL: thread 1", "IN-FLIGHT: insert on t1 (arg 1000)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}
