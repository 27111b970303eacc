package rqprov

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"ebrrq/internal/dcss"
	"ebrrq/internal/epoch"
	"ebrrq/internal/fault"
	"ebrrq/internal/obs"
)

// parkedHelper is the fixture of the descriptor-recycling forcing tests: one
// update of owner has completed and released its descriptor d at local epoch
// g, while helper — a second thread that found d installed in the slot — is
// parked inside dcss complete() holding d, inside a critical section it
// opened at epoch g+1. That is the tightest legal placement: the global
// epoch can still reach g+2 with the helper pinned, so a pool that recycled
// after two epochs instead of three would hand d out under the helper.
type parkedHelper struct {
	p             *Provider
	owner, helper *Thread
	d             *dcss.Descriptor
	g             uint64        // owner's local epoch when it released d
	resume        chan struct{} // close to let the helper finish complete()
	done          chan struct{} // closed after the helper's EndOp
	slot          dcss.Slot     // the slot the further updates toggle
	node          *epoch.Node
	present       bool
	handedD       int // how many later attempts were handed d
}

func parkHelper(t *testing.T) *parkedHelper {
	t.Helper()
	p := New(Config{MaxThreads: 2, Mode: ModeLockFree, LimboSorted: true})
	p.EnableMetrics(obs.NewRegistry(2))
	f := &parkedHelper{p: p, owner: p.Register(), helper: p.Register(),
		resume: make(chan struct{}), done: make(chan struct{}), node: newNode(9, 9)}

	var first dcss.Slot
	f.owner.StartOp()
	f.g = f.owner.ep.CurrentEpoch()
	if p.dom.ForceAdvance(1) != 1 {
		t.Fatal("could not advance past an owner announcing the current epoch")
	}
	helperIn, installed, parked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		f.helper.StartOp()
		close(helperIn)
		<-installed
		first.Load() // finds d in the slot and helps: parks at dcss.help
		f.helper.EndOp()
		close(f.done)
	}()
	<-helperIn
	if e := f.helper.ep.CurrentEpoch(); e != f.g+1 {
		t.Fatalf("helper announced epoch %d, want %d", e, f.g+1)
	}
	var hits atomic.Int32
	fault.Arm("dcss.help", fault.Hook(func(string) {
		switch hits.Add(1) {
		case 1: // the owner's own complete(): d is installed and undecided
			f.d = f.owner.desc.Load()
			close(installed)
			<-parked
		case 2: // the helper's complete() on d
			close(parked)
			<-f.resume
		}
	}).Times(2))
	n := newNode(1, 1)
	if !f.owner.UpdateCAS(&first, nil, unsafe.Pointer(n), []*epoch.Node{n}, nil, false) {
		t.Fatal("owner's update failed")
	}
	f.owner.EndOp()
	fault.Disarm("dcss.help")
	if f.d == nil || f.owner.desc.Load() != nil {
		t.Fatal("fixture did not capture the owner's descriptor")
	}
	// From here on, count every attempt of the owner that is handed d.
	fault.Arm("rqprov.update.desc", fault.Hook(func(string) {
		if f.owner.desc.Load() == f.d {
			f.handedD++
		}
	}))
	return f
}

// update runs n further updates inside the owner's current operation.
func (f *parkedHelper) update(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var ok bool
		if f.present {
			ok = f.owner.UpdateCAS(&f.slot, unsafe.Pointer(f.node), nil, nil, []*epoch.Node{f.node}, false)
		} else {
			f.node.InitKey(9, 9)
			ok = f.owner.UpdateCAS(&f.slot, nil, unsafe.Pointer(f.node), []*epoch.Node{f.node}, nil, false)
		}
		if !ok {
			t.Fatal("uncontended UpdateCAS failed")
		}
		f.present = !f.present
	}
}

// ops runs n further updates, each in an operation of its own.
func (f *parkedHelper) ops(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f.owner.StartOp()
		f.update(t, 1)
		f.owner.EndOp()
	}
}

// startOpOnSlotOf advances the epoch one step at a time until the owner opens
// an operation whose local epoch lands on the bag slot of epoch e (and is
// past it), and returns inside that operation.
func (f *parkedHelper) startOpOnSlotOf(t *testing.T, e uint64) {
	t.Helper()
	for i := 0; i < 2*descBags; i++ {
		f.p.dom.ForceAdvance(1)
		f.owner.StartOp()
		if l := f.owner.ep.CurrentEpoch(); l > e && l%descBags == e%descBags {
			return
		}
		f.owner.EndOp()
	}
	t.Fatalf("owner's epoch never landed on the slot of epoch %d", e)
}

// TestFaultDescriptorNotRecycledUnderHelper: while a helper that holds the
// owner's descriptor d is still inside its critical section, no later update
// of the owner is handed d — through more than four bag caps of updates and
// every epoch advance the pinned helper allows. Once the helper leaves and
// three epochs pass, d is handed out again: the pool recycles, it does not
// merely never reuse. Fails with the epoch gate shortened to two epochs
// (descBags = 2: d is handed out at g+2) or removed (put appending straight
// to the free list: the first later update is handed d).
func TestFaultDescriptorNotRecycledUnderHelper(t *testing.T) {
	if !fault.Enabled {
		t.Skip("descriptor-recycling forcing test requires -tags failpoints")
	}
	defer fault.Reset()
	f := parkHelper(t)

	f.ops(t, 2*descBagCap)
	f.p.dom.ForceAdvance(descBags) // as far as the pinned helper allows
	f.ops(t, 2*descBagCap+1)
	if e := f.owner.ep.CurrentEpoch(); e != f.g+2 {
		t.Fatalf("owner reached local epoch %d with the helper pinned at %d, want %d", e, f.g+1, f.g+2)
	}
	if f.handedD != 0 {
		t.Fatalf("descriptor held by a parked helper was handed out %d time(s)", f.handedD)
	}
	if !f.owner.descs.holds(f.d) {
		t.Fatal("descriptor left the pool while its grace period was still running")
	}

	close(f.resume)
	<-f.done
	f.startOpOnSlotOf(t, f.g)
	f.update(t, descBags*descBagCap+1) // enough to drain any free list to the bottom
	f.owner.EndOp()
	if f.handedD == 0 {
		t.Fatal("descriptor was never recycled after its grace period")
	}
}

// TestFaultDescriptorDroppedWhileNeutralized: the parked helper is
// neutralized, so epochs advance past it although it still holds d. The bag
// holding d must be dropped, not recycled, while the neutralization is
// unacknowledged, and nothing at all is recycled in that window; after the
// helper acknowledges, recycling resumes (without d, which is gone for good).
// Fails with the UnackedNeutralizations check removed from get: d is handed
// out while the zombie is still parked on it.
func TestFaultDescriptorDroppedWhileNeutralized(t *testing.T) {
	if !fault.Enabled {
		t.Skip("descriptor-recycling forcing test requires -tags failpoints")
	}
	defer fault.Reset()
	f := parkHelper(t)
	hits := f.p.met.descHits

	if !f.p.dom.Neutralize(f.helper.ID()) {
		t.Fatal("Neutralize refused the parked helper")
	}
	f.startOpOnSlotOf(t, f.g) // only reachable because the zombie no longer pins the epoch
	f.update(t, 1)
	if f.owner.descs.holds(f.d) {
		t.Fatal("bag holding the zombie's descriptor survived its slot's rotation")
	}
	f.update(t, descBags*descBagCap+1)
	f.owner.EndOp()
	for i := 0; i < 2*descBags; i++ { // every slot rotates at least once more
		f.p.dom.ForceAdvance(1)
		f.ops(t, 8)
	}
	if f.handedD != 0 {
		t.Fatalf("descriptor held by a neutralized helper was handed out %d time(s)", f.handedD)
	}
	if n := hits.Value(); n != 0 {
		t.Fatalf("%d descriptor(s) recycled while a neutralization was unacknowledged", n)
	}

	close(f.resume)
	<-f.done // the helper's EndOp acknowledged
	if ua := f.p.dom.UnackedNeutralizations(); ua != 0 {
		t.Fatalf("%d neutralization(s) still unacknowledged after the helper's EndOp", ua)
	}
	for i := 0; i < 2*descBags; i++ {
		f.p.dom.ForceAdvance(1)
		f.ops(t, 8)
	}
	if hits.Value() == 0 {
		t.Fatal("recycling did not resume after the acknowledgement")
	}
	if f.handedD != 0 {
		t.Fatal("a dropped descriptor came back")
	}
}
