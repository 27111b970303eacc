package epoch

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// retireN retires n fresh single-key nodes on t (each inside its own op).
func retireN(t *Thread, n int) {
	for i := 0; i < n; i++ {
		nd := &Node{}
		nd.InitKey(int64(i), 0)
		t.StartOp()
		t.Retire(nd)
		t.EndOp()
	}
}

// drainVia cycles quiescent ops on the given threads until the domain's
// limbo is empty or the op budget runs out.
func drainVia(ths ...*Thread) {
	for i := 0; i < 20*scanInterval; i++ {
		for _, t := range ths {
			t.StartOp()
			t.EndOp()
		}
	}
}

// TestLimboAccountingO1: the node/byte gauges track Retire and reclamation
// exactly, without walking chains, and the byte gauge scales with payload.
func TestLimboAccountingO1(t *testing.T) {
	d := NewDomain(2)
	a, b := d.Register(), d.Register()
	retireN(a, 10)
	if got := d.LimboNodes(); got != 10 {
		t.Fatalf("LimboNodes = %d, want 10", got)
	}
	if d.LimboBytes() < 10*nodeHeaderBytes {
		t.Fatalf("LimboBytes = %d, want >= %d", d.LimboBytes(), 10*nodeHeaderBytes)
	}
	// A multi-key node accounts for its payload too.
	multi := &Node{}
	multi.InitMulti(make([]KV, 7))
	a.StartOp()
	a.Retire(multi)
	a.EndOp()
	if want := 11*nodeHeaderBytes + 7*16; d.LimboBytes() < want {
		t.Fatalf("LimboBytes = %d after multi retire, want >= %d", d.LimboBytes(), want)
	}
	drainVia(a, b)
	if d.LimboNodes() != 0 || d.LimboBytes() != 0 {
		t.Fatalf("gauges not zero after drain: nodes=%d bytes=%d", d.LimboNodes(), d.LimboBytes())
	}
	if d.BoundedNodes() != 0 {
		t.Fatalf("BoundedNodes = %d after drain", d.BoundedNodes())
	}
}

// TestLimboLimits: OverSoftLimit/OverHardLimit trip at the configured node
// counts and zero limits never trip.
func TestLimboLimits(t *testing.T) {
	d := NewDomain(1)
	th := d.Register()
	retireN(th, 5)
	if d.OverSoftLimit() || d.OverHardLimit() {
		t.Fatal("limits tripped while unconfigured")
	}
	d.SetLimboLimits(3, 10)
	if !d.OverSoftLimit() {
		t.Fatal("soft limit (3) not tripped at 5 nodes")
	}
	if d.OverHardLimit() {
		t.Fatal("hard limit (10) tripped at 5 nodes")
	}
	retireN(th, 5)
	if !d.OverHardLimit() {
		t.Fatal("hard limit (10) not tripped at 10 nodes")
	}
	if soft, hard := d.LimboLimits(); soft != 3 || hard != 10 {
		t.Fatalf("LimboLimits = (%d, %d)", soft, hard)
	}
}

// TestForceAdvance (escalation rung 1): with every thread quiescent, forced
// advances move the global epoch without any registered thread's help, and
// the owners' next operations rotate the aged bags out.
func TestForceAdvance(t *testing.T) {
	d := NewDomain(2)
	freed := 0
	d.SetFreeFunc(func(tid int, n *Node) { freed++ })
	a, b := d.Register(), d.Register()
	retireN(a, 4)
	e0 := d.GlobalEpoch()
	if adv := d.ForceAdvance(numBags); adv != numBags {
		t.Fatalf("ForceAdvance = %d, want %d", adv, numBags)
	}
	if d.GlobalEpoch() != e0+numBags {
		t.Fatalf("global epoch %d, want %d", d.GlobalEpoch(), e0+numBags)
	}
	// The bags are now stale; one op per owner rotates and reclaims them.
	a.StartOp()
	a.EndOp()
	_ = b
	if freed != 4 || d.LimboNodes() != 0 {
		t.Fatalf("freed=%d limbo=%d after rotation, want 4/0", freed, d.LimboNodes())
	}
	// An active thread on an older epoch blocks forcing, exactly like it
	// blocks ordinary advances.
	b.StartOp()
	defer b.EndOp()
	if adv := d.ForceAdvance(2); adv > 1 {
		t.Fatalf("ForceAdvance past an active thread = %d, want <= 1", adv)
	}
}

// TestForceSweep (escalation rung 2): a dead thread's stale bags are
// reclaimed immediately by ForceSweep, without waiting for a live thread to
// reach its next scanInterval advance.
func TestForceSweep(t *testing.T) {
	d := NewDomain(2)
	freed := 0
	d.SetFreeFunc(func(tid int, n *Node) { freed++ })
	victim := d.Register()
	live := d.Register()
	retireN(victim, 6)
	victim.Deregister()
	// Age the dead thread's bags out with forced advances only.
	d.ForceAdvance(numBags)
	// ForceAdvance's own orphan sweep may already have taken them; the
	// explicit rung-2 call must leave nothing behind either way.
	d.ForceSweep()
	if d.LimboNodes() != 0 || freed != 6 {
		t.Fatalf("limbo=%d freed=%d after ForceSweep, want 0/6", d.LimboNodes(), freed)
	}
	_ = live
}

// TestNeutralizeUnpinsEpoch (escalation rung 3): neutralizing a thread
// stalled mid-operation lets the global epoch advance again, the victim's
// next StartOp panics ErrNeutralized (acknowledging), and the thread is
// replaceable through the usual deregister/adopt path.
func TestNeutralizeUnpinsEpoch(t *testing.T) {
	d := NewDomain(2)
	victim := d.Register()
	worker := d.Register()

	victim.StartOp() // stalls here: one advance can still happen, then pinned
	for i := 0; i < 2*scanInterval; i++ {
		worker.StartOp()
		worker.EndOp()
	}
	adv0 := d.Advances()
	for i := 0; i < 2*scanInterval; i++ {
		worker.StartOp()
		worker.EndOp()
	}
	if d.Advances() != adv0 {
		t.Fatal("stalled thread did not pin the epoch (test premise broken)")
	}

	if !d.Neutralize(victim.ID()) {
		t.Fatal("Neutralize refused a live stalled thread")
	}
	if d.Neutralize(victim.ID()) {
		t.Fatal("second Neutralize of the same thread succeeded")
	}
	if d.Neutralizations() != 1 || d.UnackedNeutralizations() != 1 {
		t.Fatalf("counters after neutralize: total=%d unacked=%d", d.Neutralizations(), d.UnackedNeutralizations())
	}
	for i := 0; i < 2*scanInterval; i++ {
		worker.StartOp()
		worker.EndOp()
	}
	if d.Advances() == adv0 {
		t.Fatal("epoch still pinned after neutralization")
	}

	// The victim resumes: its next op boundary must abort and acknowledge.
	func() {
		defer func() {
			if r := recover(); r != ErrNeutralized {
				t.Fatalf("victim EndOp+StartOp recovered %v, want ErrNeutralized", r)
			}
		}()
		victim.EndOp()   // op boundary: acks (no panic — completed op is sound)
		victim.StartOp() // must refuse to start a new op
		t.Fatal("StartOp on a neutralized thread did not panic")
	}()
	if d.UnackedNeutralizations() != 0 {
		t.Fatalf("unacked = %d after op boundary", d.UnackedNeutralizations())
	}

	// The slot is recoverable exactly like any dead thread's.
	victim.Deregister()
	fresh, err := d.TryRegister()
	if err != nil {
		t.Fatalf("TryRegister after neutralized deregister: %v", err)
	}
	if fresh.ID() != victim.ID() {
		t.Fatalf("adopted slot %d, want %d", fresh.ID(), victim.ID())
	}
	fresh.StartOp()
	fresh.EndOp()
}

// TestReclaimStaleQuiescentOwner: a quiescent owner can empty its own aged
// limbo bags without entering an operation. This is the self-service drain
// the backpressure gate relies on — a rejected updater never reaches the
// StartOp rotation, so without it the domain would sit at the hard limit
// with all the reclaimable garbage parked in the rejected threads' bags.
func TestReclaimStaleQuiescentOwner(t *testing.T) {
	d := NewDomain(2)
	var mu sync.Mutex
	freed := 0
	d.SetFreeFunc(func(tid int, n *Node) { mu.Lock(); freed++; mu.Unlock() })
	owner := d.Register()
	helper := d.Register()

	retireN(owner, 5)
	// Age the bags: the helper alone advances the epoch while the owner stays
	// quiescent, so the owner's rotation never runs and its limbo sits there.
	drainVia(helper)
	if got := d.LimboNodes(); got != 5 {
		t.Fatalf("limbo=%d before self-reclaim, want 5 (only the owner can rotate)", got)
	}
	if n := owner.ReclaimStale(); n != 5 {
		t.Fatalf("ReclaimStale freed %d, want 5", n)
	}
	mu.Lock()
	f := freed
	mu.Unlock()
	if d.LimboNodes() != 0 || f != 5 {
		t.Fatalf("after self-reclaim: limbo=%d freed=%d, want 0/5", d.LimboNodes(), f)
	}
	if n := owner.ReclaimStale(); n != 0 {
		t.Fatalf("second ReclaimStale freed %d, want 0", n)
	}

	// Freshly retired nodes are too young — the floor of a concurrent query
	// could still cover them — so they must survive a self-reclaim.
	retireN(owner, 3)
	if n := owner.ReclaimStale(); n != 0 {
		t.Fatalf("ReclaimStale freed %d fresh nodes, want 0", n)
	}

	// Misuse: mid-operation self-reclaim would race the thread's own rotation.
	owner.StartOp()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ReclaimStale inside an operation did not panic")
			}
		}()
		owner.ReclaimStale()
	}()
	owner.EndOp()
}

// TestQuarantineHoldsUntilAck: while a neutralization is unacknowledged,
// every reclaimable chain is diverted to quarantine — the free function must
// not run — and the last acknowledgement drains it, into the acknowledging
// thread's pool: the drain runs on that thread's goroutine, and the chains'
// own thread may be allocating from its pool at that moment.
func TestQuarantineHoldsUntilAck(t *testing.T) {
	d := NewDomain(2)
	var mu sync.Mutex
	freed := 0
	freedTo := map[int]int{}
	d.SetFreeFunc(func(tid int, n *Node) { mu.Lock(); freed++; freedTo[tid]++; mu.Unlock() })
	victim := d.Register()
	worker := d.Register()

	victim.StartOp() // stall mid-op
	if !d.Neutralize(victim.ID()) {
		t.Fatal("Neutralize failed")
	}

	// The worker retires and churns: everything that becomes reclaimable
	// while the poison is unacknowledged must land in quarantine.
	retireN(worker, 8)
	drainVia(worker)
	mu.Lock()
	f := freed
	mu.Unlock()
	if f != 0 {
		t.Fatalf("%d nodes freed while a neutralization was unacknowledged", f)
	}
	if d.QuarantinedNodes() == 0 {
		t.Fatal("nothing quarantined despite churn under an unacked neutralization")
	}
	if d.QuarantinedBytes() < d.QuarantinedNodes()*nodeHeaderBytes {
		t.Fatalf("quarantine bytes %d below header floor for %d nodes",
			d.QuarantinedBytes(), d.QuarantinedNodes())
	}
	// BoundedNodes covers quarantine, so the limits still see the memory.
	if d.BoundedNodes() < d.QuarantinedNodes() {
		t.Fatal("BoundedNodes does not include quarantined nodes")
	}

	// Ack via the victim's op boundary: the quarantine must drain to the
	// free function.
	func() {
		defer func() { recover() }()
		victim.EndOp()
		victim.StartOp()
	}()
	if d.UnackedNeutralizations() != 0 {
		t.Fatal("ack did not land")
	}
	if d.QuarantinedNodes() != 0 || d.QuarantinedBytes() != 0 {
		t.Fatalf("quarantine not drained after ack: nodes=%d bytes=%d",
			d.QuarantinedNodes(), d.QuarantinedBytes())
	}
	mu.Lock()
	f = freed
	mu.Unlock()
	if f == 0 {
		t.Fatal("drained quarantine reached no free function")
	}
	if freedTo[victim.ID()] != f {
		t.Fatalf("drain freed into pools %v, want all %d in the acknowledger's (thread %d)",
			freedTo, f, victim.ID())
	}
}

// TestNeutralizedMidOpCheckpoints: the mid-operation checkpoints refuse to
// let a resumed zombie touch shared state — Retire and LimboBags panic
// without acknowledging (references may be live), and AbortOp on the unwind
// path delivers the acknowledgement.
func TestNeutralizedMidOpCheckpoints(t *testing.T) {
	d := NewDomain(2)
	victim := d.Register()
	d.Register()

	victim.StartOp()
	if !d.Neutralize(victim.ID()) {
		t.Fatal("Neutralize failed")
	}

	mustPanicNoAck := func(name string, f func()) {
		t.Helper()
		func() {
			defer func() {
				if r := recover(); r != ErrNeutralized {
					t.Fatalf("%s: recovered %v, want ErrNeutralized", name, r)
				}
			}()
			f()
		}()
		if d.UnackedNeutralizations() != 1 {
			t.Fatalf("%s acknowledged the poison mid-op", name)
		}
	}
	nd := &Node{}
	nd.InitKey(1, 1)
	mustPanicNoAck("Retire", func() { victim.Retire(nd) })
	mustPanicNoAck("LimboBags", func() { victim.LimboBags() })
	mustPanicNoAck("CheckNeutralized", victim.CheckNeutralized)

	victim.AbortOp() // the recovery path acknowledges
	if d.UnackedNeutralizations() != 0 {
		t.Fatal("AbortOp did not acknowledge")
	}
}

// TestWatchdogEscalationLadder: end to end — sustained soft-limit pressure
// from one permanently stalled thread makes the watchdog walk the ladder to
// neutralization, after which the epoch advances and limbo drains while the
// victim's garbage sits quarantined until its acknowledgement.
func TestWatchdogEscalationLadder(t *testing.T) {
	d := NewDomain(2)
	freedCh := make(chan struct{}, 1024)
	d.SetFreeFunc(func(tid int, n *Node) {
		select {
		case freedCh <- struct{}{}:
		default:
		}
	})
	d.SetLimboLimits(8, 64)
	victim := d.Register()
	worker := d.Register()

	neutralized := make(chan Stall, 16)
	w := d.StartWatchdog(WatchdogConfig{
		Interval:      time.Millisecond,
		StallAfter:    5 * time.Millisecond,
		EscalateAfter: 10 * time.Millisecond,
		Neutralize:    true,
		// Non-blocking send: the callback runs on the watchdog loop, and a
		// blocked callback would wedge the ladder (and Stop).
		OnNeutralize: func(s Stall) {
			select {
			case neutralized <- s:
			default:
			}
		},
	})
	defer w.Stop()

	victim.StartOp() // permanent stall

	// A scheduling hiccup can make the watchdog flag — and, this aggressively
	// configured, neutralize — the busy worker too. That is the configured
	// policy, not a bug; the worker recovers the way any neutralized thread
	// does: abort, deregister, re-register into the freed slot.
	workerDo := func(op func()) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if err, ok := r.(error); !ok || !errors.Is(err, ErrNeutralized) {
				panic(r)
			}
			worker.AbortOp()
			worker.Deregister()
			worker = d.Register()
		}()
		op()
	}

	// Sustained update load drives limbo over the soft limit and keeps it
	// there; the pinned epoch stops rotation, so pressure is sustained.
	deadline := time.After(5 * time.Second)
loop:
	for {
		workerDo(func() { retireN(worker, 2) })
		select {
		case got := <-neutralized:
			if got.ThreadID == victim.ID() {
				break loop // collateral worker neutralizations recover above
			}
		case <-deadline:
			t.Fatal("watchdog never escalated to neutralizing the staller")
		default:
		}
	}
	// With the victim excluded from the min-epoch the worker can drain.
	for i := 0; i < 20*scanInterval; i++ {
		workerDo(func() {
			worker.StartOp()
			worker.EndOp()
		})
	}
	if d.LimboNodes() != 0 {
		t.Fatalf("limbo=%d after neutralization + drain, want 0", d.LimboNodes())
	}
	// Victim acks at its op boundary; the quarantine must then drain.
	func() {
		defer func() { recover() }()
		victim.EndOp()
		victim.StartOp()
	}()
	if d.QuarantinedNodes() != 0 {
		t.Fatalf("quarantine=%d after ack", d.QuarantinedNodes())
	}
}
