package rqprov

import (
	"ebrrq/internal/dcss"
	"ebrrq/internal/epoch"
)

// descBags is the number of used-descriptor bags per thread. It equals the
// EBR domain's limbo-bag count and rests on the same arithmetic: slot e%3
// last held an epoch ≤ e-3, and a critical section that was running at a
// release tagged e' cannot outlive global epoch e'+2 (DESIGN.md §11).
const descBags = 3

// descBagCap bounds each used bag, and with it the pool: at most
// descBags*descBagCap descriptors per thread. Releases past the cap are
// dropped to the garbage collector — an updater whose epoch cannot advance
// (a peer descheduled mid-operation, one long critical section) degrades to
// allocating, never to growing.
const descBagCap = 256

// descPool is one thread's private pool of DCSS descriptors, recycled
// through the epochs the EBR domain already runs. A descriptor released
// while its owner's local epoch is e waits in the used bag of slot e%3; when
// the owner's local epoch next lands on that slot (at e+3 or later) every
// critical section that could hold a reference has ended, and the bag's
// contents are Reset and moved to the free list. Owner-only, no
// synchronisation: the grace period is what orders the owner's plain
// re-arming stores after every helper's reads.
type descPool struct {
	used [descBags]descBag
	free []*dcss.Descriptor
}

type descBag struct {
	epoch uint64
	descs []*dcss.Descriptor
}

// get returns a recycled descriptor, or nil when the pool has none. e is the
// owner's local epoch. A bag whose grace period has passed is recycled only
// if no neutralization is unacknowledged — a neutralized thread no longer
// holds the epoch back but may still be running inside the critical section
// in which it took a reference. The check comes after the epoch observation
// that produced e: Neutralize raises the count before it lets the epoch
// pass the zombie, so an epoch that got here because of one finds the count
// raised. A bag that fails the check is dropped, not kept: the garbage
// collector reclaims a descriptor exactly when the last reference dies,
// which no later epoch can tell us.
func (pl *descPool) get(e uint64, dom *epoch.Domain) *dcss.Descriptor {
	if b := &pl.used[e%descBags]; b.epoch != e {
		if dom.UnackedNeutralizations() == 0 {
			for _, d := range b.descs {
				d.Reset() // here, not at release: helpers may still read the fields
				pl.free = append(pl.free, d)
			}
		}
		clear(b.descs)
		b.descs = b.descs[:0]
		b.epoch = e
	}
	n := len(pl.free)
	if n == 0 {
		return nil
	}
	d := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	return d
}

// put hands a descriptor back once it is out of every slot and announcement.
// e is the owner's local epoch, the same value the matching get saw (the
// local epoch only changes at an operation boundary).
func (pl *descPool) put(e uint64, d *dcss.Descriptor) {
	if b := &pl.used[e%descBags]; b.epoch == e && len(b.descs) < descBagCap {
		b.descs = append(b.descs, d)
	}
}
