package epoch

import (
	"testing"
	"time"
)

// TestWatchdogDetectsStallAndRecovery: a thread that sits inside one
// operation past StallAfter is reported (with its announced epoch), and the
// report clears once the operation ends.
func TestWatchdogDetectsStallAndRecovery(t *testing.T) {
	d := NewDomain(2)
	worker := d.Register()
	staller := d.Register()

	stallCh := make(chan []Stall, 1)
	recoverCh := make(chan struct{}, 1)
	w := d.StartWatchdog(WatchdogConfig{
		Interval:   time.Millisecond,
		StallAfter: 10 * time.Millisecond,
		OnStall:    func(s []Stall) { stallCh <- s },
		OnRecover:  func() { recoverCh <- struct{}{} },
	})
	defer w.Stop()

	staller.StartOp()
	churn(worker, scanInterval)

	select {
	case stalls := <-stallCh:
		if len(stalls) != 1 || stalls[0].ThreadID != staller.ID() {
			t.Fatalf("OnStall reported %+v, want thread %d", stalls, staller.ID())
		}
		if stalls[0].Stuck < 10*time.Millisecond {
			t.Fatalf("Stuck = %v, want >= StallAfter", stalls[0].Stuck)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never reported the stalled thread")
	}
	if got := w.Stalls(); len(got) != 1 || got[0].ThreadID != staller.ID() {
		t.Fatalf("Stalls() = %+v after OnStall", got)
	}
	if got := d.StalledThreads(); len(got) != 1 {
		t.Fatalf("StalledThreads() = %+v, want the watchdog's view", got)
	}

	staller.EndOp()
	select {
	case <-recoverCh:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never reported recovery")
	}
	if got := w.Stalls(); len(got) != 0 {
		t.Fatalf("Stalls() = %+v after recovery", got)
	}
}

// TestWatchdogIgnoresProgress: a thread that keeps completing operations is
// never flagged, even when every sample catches it mid-operation.
func TestWatchdogIgnoresProgress(t *testing.T) {
	d := NewDomain(1)
	th := d.Register()
	stalled := make(chan []Stall, 16)
	w := d.StartWatchdog(WatchdogConfig{
		Interval: time.Millisecond,
		// Well above one OS preemption of this goroutine: on a loaded
		// 2-vCPU host a 5 ms threshold was tripped by a 6 ms deschedule.
		StallAfter: 20 * time.Millisecond,
		OnStall:    func(s []Stall) { stalled <- s },
	})
	defer w.Stop()

	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		th.StartOp()
		th.EndOp()
	}
	select {
	case s := <-stalled:
		t.Fatalf("progressing thread flagged as stalled: %+v", s)
	default:
	}
}

// TestStallsLagBased checks the instantaneous lag-based introspection that
// backs the observability gauges when no watchdog is attached. A single
// stalled thread shows lag exactly 1 (the global epoch can pass its
// announcement once and no further), which is precisely why StalledThreads'
// watchdog-free fallback uses minLag 2 and stays quiet.
func TestStallsLagBased(t *testing.T) {
	d := NewDomain(2)
	worker := d.Register()
	staller := d.Register()

	if got := d.Stalls(1); len(got) != 0 {
		t.Fatalf("Stalls(1) on idle domain = %+v", got)
	}
	staller.StartOp()
	churn(worker, 4*scanInterval)

	got := d.Stalls(1)
	if len(got) != 1 || got[0].ThreadID != staller.ID() {
		t.Fatalf("Stalls(1) = %+v, want the staller", got)
	}
	if got[0].Lag() != 1 {
		t.Fatalf("single staller lag = %d, want exactly 1", got[0].Lag())
	}
	if d.MaxLag() != 1 {
		t.Fatalf("MaxLag = %d, want 1", d.MaxLag())
	}
	if fallback := d.StalledThreads(); len(fallback) != 0 {
		t.Fatalf("watchdog-free StalledThreads = %+v, want empty (lag 1 is normal)", fallback)
	}
	staller.EndOp()
	churn(worker, 2*scanInterval)
	if d.MaxLag() != 0 {
		t.Fatalf("MaxLag after recovery = %d", d.MaxLag())
	}
}

// TestWatchdogReplaceAndStop: starting a second watchdog stops the first,
// Stop is idempotent, and a stopped watchdog detaches from the domain.
func TestWatchdogReplaceAndStop(t *testing.T) {
	d := NewDomain(1)
	w1 := d.StartWatchdog(WatchdogConfig{Interval: time.Millisecond})
	w2 := d.StartWatchdog(WatchdogConfig{Interval: time.Millisecond})
	if d.Watchdog() != w2 {
		t.Fatal("second StartWatchdog did not attach")
	}
	w1.Stop() // already stopped by the replacement; must not hang or detach w2
	if d.Watchdog() != w2 {
		t.Fatal("stopping the replaced watchdog detached the live one")
	}
	w2.Stop()
	w2.Stop()
	if d.Watchdog() != nil {
		t.Fatal("domain still points at a stopped watchdog")
	}
}
