package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ebrrq/internal/validate"
)

const (
	replayKeys     = 1 << 12
	replayDuration = time.Second
	// The checker logs every update and copies every range-query result, so
	// the replay also ends once it holds this many updates, queries or
	// result keys.
	replayMaxUpdates = 400_000
	replayMaxRQs     = 20_000
	replayMaxRQKeys  = 1 << 20
)

// replay runs the workload's operation mix on a small set whose every
// timestamped update goes to a validate.Checker, logs every range query with
// its linearization timestamp, and has the checker recompute each query's
// exact answer from the update history — the check cmd/validate performs.
// Scans wider than an eighth of the small key range are narrowed to keep
// their share of it.
func replay(w *workload, seed int64) error {
	deadline := armDeadline(w.name+" validation replay", replayDuration+livenessSlack)
	defer deadline.Stop()

	shards := w.shards
	if shards == 0 {
		shards = 1
	}
	checker := validate.NewChecker(shards * maxThreads)
	tgt, err := w.build(replayKeys, hooks{recorder: checker})
	if err != nil {
		return err
	}
	if err := tgt.prefill(seed, replayKeys); err != nil {
		return err
	}
	width := w.rqWidth
	if width > replayKeys/8 {
		width = width * replayKeys / w.keyRange
	}

	var stop atomic.Bool
	var updates, rqs, rqKeys atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, numWorkers)
	for i := 0; i < numWorkers; i++ {
		h, err := tgt.newThread()
		if err != nil {
			return err
		}
		g := newOpGen(seed, i, w.roles[i], replayKeys, width)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer h.Close()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("worker %d panicked: %v", i, r)
					stop.Store(true)
				}
			}()
			tid := checkerTid(h)
			for !stop.Load() {
				switch o := g.next(); o.kind {
				case opInsert:
					h.Insert(o.key, o.key)
					updates.Add(1)
				case opDelete:
					h.Delete(o.key)
					updates.Add(1)
				case opContains:
					h.Contains(o.key)
				case opRQ:
					res := h.RangeQuery(o.key, o.hi)
					checker.AddRQ(tid, h.LastRQTimestamp(), o.key, o.hi, res)
					rqs.Add(1)
					rqKeys.Add(int64(len(res)))
				}
			}
		}(i)
	}
	for end := time.Now().Add(replayDuration); time.Now().Before(end) && !stop.Load(); {
		if updates.Load() >= replayMaxUpdates || rqs.Load() >= replayMaxRQs || rqKeys.Load() >= replayMaxRQKeys {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	if checker.RQs() == 0 {
		return fmt.Errorf("replay issued no range queries")
	}
	if err := checker.Check(); err != nil {
		return fmt.Errorf("%d update events, %d range queries: %w", checker.Events(), checker.RQs(), err)
	}
	return nil
}
