package dstest_test

import (
	"testing"
	"time"

	"ebrrq"
	"ebrrq/internal/dstest"
	"ebrrq/internal/fault"
	"ebrrq/internal/validate"
)

func shardedDuration() time.Duration {
	if testing.Short() {
		return 100 * time.Millisecond
	}
	return 300 * time.Millisecond
}

// TestShardedValidated runs the timestamp-replay validated stress workload
// against the sharded router for every linearizable technique, on both a
// skiplist and a lock-free list, at 2 and 4 shards.
func TestShardedValidated(t *testing.T) {
	type cell struct {
		ds     ebrrq.DataStructure
		tech   ebrrq.Mode
		tq     ebrrq.Technique // nil = EBR
		shards int
	}
	cells := []cell{
		{ebrrq.SkipList, ebrrq.Lock, nil, 2},
		{ebrrq.SkipList, ebrrq.HTM, nil, 2},
		{ebrrq.SkipList, ebrrq.LockFree, nil, 2},
		{ebrrq.SkipList, ebrrq.LockFree, nil, 4},
		{ebrrq.LFList, ebrrq.Lock, nil, 2},
		{ebrrq.LFList, ebrrq.LockFree, nil, 2},
		{ebrrq.LazyList, ebrrq.Lock, ebrrq.Bundle, 2},
		{ebrrq.SkipList, ebrrq.Lock, ebrrq.Bundle, 2},
		{ebrrq.SkipList, ebrrq.Lock, ebrrq.Bundle, 4},
	}
	for _, c := range cells {
		c := c
		name := c.ds.String() + "/" + c.tech.String() + "/s" + string(rune('0'+c.shards))
		if c.tq != nil {
			name += "/" + c.tq.String()
		}
		t.Run(name, func(t *testing.T) {
			runShardedValidated(t, c.ds, c.tech, c.tq, c.shards, dstest.StressCfg{
				Duration: shardedDuration(),
				Seed:     int64(c.shards) * 7919,
			})
		})
	}
}

// TestShardedStallCrossShardRQ wedges an update on shard 0 after it has
// announced itself but before it linearizes (failpoint
// "rqprov.update.announced"), then issues a range query spanning both shards.
// In ModeLock the query's announcement sweep on shard 0 must block until the
// update resolves — so the RQ must NOT complete while the update is wedged —
// and once released, the whole history must replay-validate at the shared
// clock's timestamps.
func TestShardedStallCrossShardRQ(t *testing.T) {
	if !fault.Enabled {
		t.Skip("stall tests require -tags failpoints")
	}
	const n = 3 // prefill/main + updater + RQ thread
	checker := validate.NewChecker(2 * n)
	s, err := ebrrq.NewShardedWithOptions(ebrrq.SkipList, ebrrq.Lock, n, 2,
		ebrrq.ShardedOptions{Recorder: checker, KeyMin: 0, KeyMax: 99})
	if err != nil {
		t.Fatal(err)
	}
	main := s.NewThread()
	for k := int64(0); k < 100; k += 10 {
		main.Insert(k, k*10)
	}

	fault.Reset()
	defer fault.Reset()
	act, release := fault.Stall()
	released := false
	defer func() {
		if !released {
			release()
		}
	}()
	fault.Arm("rqprov.update.announced", act.Once())

	// Wedge a delete on shard 0 ([0, 49]) mid-announce.
	upd := s.NewThread()
	updDone := make(chan bool, 1)
	go func() { updDone <- upd.Delete(20) }()
	deadline := time.Now().Add(5 * time.Second)
	for fault.Fired("rqprov.update.announced") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("updater never reached the announced failpoint")
		}
		time.Sleep(time.Millisecond)
	}

	// A cross-shard RQ must block on shard 0's unresolved announcement.
	rq := s.NewThread()
	rqDone := make(chan []ebrrq.KV, 1)
	go func() { rqDone <- rq.RangeQuery(0, 99) }()
	select {
	case <-rqDone:
		t.Fatal("cross-shard RQ completed while a shard-0 update was wedged mid-announce")
	case <-time.After(50 * time.Millisecond):
	}

	release()
	released = true
	var res []ebrrq.KV
	select {
	case res = <-rqDone:
	case <-time.After(5 * time.Second):
		t.Fatal("cross-shard RQ did not complete after release")
	}
	if ok := <-updDone; !ok {
		t.Fatal("wedged Delete(20) reported failure on a present key")
	}
	checker.AddRQ(rq.ShardThread(0).ID(), rq.LastRQTimestamp(), 0, 99, res)
	upd.Close()
	rq.Close()
	main.Close()
	if err := checker.Check(); err != nil {
		t.Fatalf("replay validation after stall: %v", err)
	}
}

// TestShardedStallLockFreeBoundedWaitRQ is the lock-free twin: the update is
// wedged after publishing its DCSS descriptor ("rqprov.update.desc"). A
// cross-shard RQ first advances the shared clock, which dooms the wedged
// descriptor (its expected timestamp is stale, so helping cannot linearize
// it — only the updater's retry can), so with the default infinite wait
// budget the RQ would block exactly like the lock-mode test. With a positive
// WaitBudget the RQ must instead resolve the announcement conservatively —
// include the announced key and complete WITHOUT the updater ever resuming —
// and the merged history must still replay-validate: the delete retries
// after release at a timestamp >= the RQ's, so including the key is the
// linearizable outcome.
func TestShardedStallLockFreeBoundedWaitRQ(t *testing.T) {
	if !fault.Enabled {
		t.Skip("stall tests require -tags failpoints")
	}
	const n = 3
	checker := validate.NewChecker(2 * n)
	s, err := ebrrq.NewShardedWithOptions(ebrrq.SkipList, ebrrq.LockFree, n, 2,
		ebrrq.ShardedOptions{Recorder: checker, KeyMin: 0, KeyMax: 99, WaitBudget: 200})
	if err != nil {
		t.Fatal(err)
	}
	main := s.NewThread()
	for k := int64(0); k < 100; k += 10 {
		main.Insert(k, k*10)
	}

	fault.Reset()
	defer fault.Reset()
	act, release := fault.Stall()
	released := false
	defer func() {
		if !released {
			release()
		}
	}()
	fault.Arm("rqprov.update.desc", act.Once())

	upd := s.NewThread()
	updDone := make(chan bool, 1)
	go func() { updDone <- upd.Delete(20) }()
	deadline := time.Now().Add(5 * time.Second)
	for fault.Fired("rqprov.update.desc") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("updater never reached the descriptor failpoint")
		}
		time.Sleep(time.Millisecond)
	}

	// The RQ must complete WITHOUT release: the wait budget resolves the
	// wedged announcement conservatively.
	rq := s.NewThread()
	rqDone := make(chan []ebrrq.KV, 1)
	go func() { rqDone <- rq.RangeQuery(0, 99) }()
	var res []ebrrq.KV
	select {
	case res = <-rqDone:
	case <-time.After(5 * time.Second):
		t.Fatal("lock-free cross-shard RQ did not complete within its wait budget")
	}
	found := false
	for _, kv := range res {
		found = found || kv.Key == 20
	}
	if !found {
		t.Fatal("bounded-wait RQ dropped the announced key 20; conservative resolution must include it")
	}

	release()
	released = true
	if ok := <-updDone; !ok {
		t.Fatal("wedged Delete(20) reported failure on a present key")
	}
	if _, still := main.Contains(20); still {
		t.Fatal("key 20 still present after its delete completed")
	}
	checker.AddRQ(rq.ShardThread(0).ID(), rq.LastRQTimestamp(), 0, 99, res)
	upd.Close()
	rq.Close()
	main.Close()
	if err := checker.Check(); err != nil {
		t.Fatalf("replay validation after bounded-wait stall: %v", err)
	}
}
