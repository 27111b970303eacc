package dstest_test

import (
	"testing"
	"time"

	"ebrrq/internal/dstest"
	"ebrrq/internal/rqprov"
)

// TestChaosMemBound is the bounded-memory acceptance proof: one updater
// permanently stalled mid-update (epoch announced, deletion announced, CAS
// pending) while the rest hammer the structure through the backpressure
// gate. The harness asserts limbo + quarantine never exceed the hard limit
// (plus the bounded admission overshoot), that the watchdog escalates to
// neutralizing the staller, that quarantined nodes are handed to the free
// function only after the victim resumes and acknowledges, and that
// validation replays clean afterwards.
//
// Restricted to structures with lock-free update paths: the released victim
// aborts with a panic out of UpdateCAS, and a lock-based structure would
// strand its own node locks on that unwind.
func TestChaosMemBound(t *testing.T) {
	long := 10 * time.Second
	if testing.Short() {
		long = 2 * time.Second
	}
	for _, ds := range chaosStructures {
		if !ds.lockFreeUpdates {
			continue
		}
		for _, mode := range chaosModes() {
			t.Run(ds.name+"/"+mode.String(), func(t *testing.T) {
				// The canonical long proof runs once; the other structure ×
				// mode pairs re-check the protocol on a shorter window.
				d := 3 * time.Second
				if testing.Short() {
					d = long
				} else if ds.name == "lflist" && mode == rqprov.ModeLockFree {
					d = long
				}
				stats := dstest.RunChaosMemBound(t, mode, ds.limboSorted, ds.build, dstest.MemBoundCfg{
					Duration: d,
					Seed:     47,
				})
				t.Logf("chaos-mem: victim=%d neutralizations=%d admitted=%d backpressured=%d peak=%d quarantine-peak=%d",
					stats.VictimID, stats.Neutralizations, stats.Admitted,
					stats.Backpressured, stats.PeakBounded, stats.QuarantinePeak)
			})
		}
	}
}
