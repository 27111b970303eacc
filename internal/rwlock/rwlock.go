// Package rwlock provides the two reader-writer locks used by the range
// query providers:
//
//   - FetchAddRW: the paper's "simplistic single-word fetch-and-add r/w-lock"
//     protecting the global timestamp in the lock-based provider. Updates
//     acquire it in shared mode; range queries acquire it in exclusive mode.
//
//   - DistRW: a distributed reader-indicator lock that emulates the paper's
//     HTM fast path. A hardware transaction in the HTM provider reads the
//     lock word (aborting if exclusively held), reads TS, performs the update
//     CAS and commits — its only effect on shared state is the update CAS
//     itself, so concurrent updates do not contend on the lock word. DistRW
//     reproduces that behaviour in software: shared entry touches only the
//     caller's own padded slot and validates the exclusive bit (retrying on
//     "abort"), while exclusive entry sets the bit and waits for all slots to
//     drain. Go exposes no TSX intrinsics, so this is the documented
//     substitution for the HTM provider.
package rwlock

import (
	"runtime"
	"sync/atomic"

	"ebrrq/internal/fault"
	"ebrrq/internal/obs"
)

// spinThenYield spins briefly and then yields the processor: whenever
// goroutines outnumber processors the holder being waited for may need this
// processor to make progress, so spinning past a few iterations only delays
// the release.
func spinThenYield(i int) {
	if i < 16 {
		return
	}
	runtime.Gosched()
}

const writerBit = uint64(1) << 62

// FetchAddRW is a reader-preference reader/writer lock built from a single
// word manipulated with fetch-and-add, as described in §5 of the paper.
type FetchAddRW struct {
	state atomic.Uint64
}

// AcquireShared acquires the lock in shared mode. Multiple threads may hold
// shared mode simultaneously.
func (l *FetchAddRW) AcquireShared() {
	for i := 0; ; i++ {
		v := l.state.Add(1)
		if v&writerBit == 0 {
			return
		}
		// A writer holds or is acquiring the lock; back off. Until the
		// decrement below lands, the word carries this reader's transient
		// increment — ReleaseExclusive must not overwrite it.
		fault.Inject("rwlock.shared.backoff")
		l.state.Add(^uint64(0)) // -1
		for j := 0; l.state.Load()&writerBit != 0; j++ {
			spinThenYield(j)
		}
		spinThenYield(i)
	}
}

// ReleaseShared releases a shared-mode acquisition.
func (l *FetchAddRW) ReleaseShared() {
	l.state.Add(^uint64(0)) // -1
}

// AcquireExclusive acquires the lock in exclusive mode, excluding all shared
// and exclusive holders.
func (l *FetchAddRW) AcquireExclusive() {
	for i := 0; ; i++ {
		if l.state.CompareAndSwap(0, writerBit) {
			return
		}
		spinThenYield(i)
	}
}

// ReleaseExclusive releases an exclusive-mode acquisition. It subtracts the
// writer bit rather than storing zero: a reader backing off in AcquireShared
// may sit between its increment and its decrement, and a store landing there
// would let the decrement underflow the word and leave writerBit set for good.
func (l *FetchAddRW) ReleaseExclusive() {
	l.state.Add(^(writerBit - 1)) // -writerBit
}

// ExclusiveHeld reports whether the lock is currently held in exclusive mode
// (used by the HTM provider's transaction validation).
func (l *FetchAddRW) ExclusiveHeld() bool {
	return l.state.Load()&writerBit != 0
}

// cacheLine padding avoids false sharing between per-thread reader slots.
type paddedFlag struct {
	v atomic.Uint32
	_ [60]byte
}

// DistRW is the distributed reader-indicator lock emulating the HTM fast
// path. Shared acquisitions are indexed by thread id.
type DistRW struct {
	writer atomic.Uint32
	slots  []paddedFlag

	// Aborts counts shared-mode "transaction aborts" (entries that observed
	// the exclusive bit and retried), mirroring HTM abort statistics.
	Aborts atomic.Uint64

	// AbortCounter, when non-nil, additionally receives every abort with
	// the aborting thread's id (wired by the provider's observability
	// layer). The abort cause in this emulation is always "lock held":
	// a writer owned or was acquiring the lock during the transaction.
	AbortCounter *obs.Counter
}

// NewDistRW creates a distributed r/w lock for up to maxThreads threads.
func NewDistRW(maxThreads int) *DistRW {
	return &DistRW{slots: make([]paddedFlag, maxThreads)}
}

// AcquireShared enters shared mode for thread tid. It is the software
// analogue of beginning a hardware transaction that subscribes to the lock.
func (l *DistRW) AcquireShared(tid int) {
	s := &l.slots[tid].v
	for i := 0; ; i++ {
		s.Store(1)
		if l.writer.Load() == 0 {
			return
		}
		// "Abort": a writer is active or arriving.
		s.Store(0)
		l.Aborts.Add(1)
		l.AbortCounter.Inc(tid)
		for j := 0; l.writer.Load() != 0; j++ {
			spinThenYield(j)
		}
		spinThenYield(i)
	}
}

// ReleaseShared exits shared mode for thread tid.
func (l *DistRW) ReleaseShared(tid int) {
	l.slots[tid].v.Store(0)
}

// AcquireExclusive enters exclusive mode: it sets the writer flag and waits
// for every reader slot to drain.
func (l *DistRW) AcquireExclusive() {
	for i := 0; !l.writer.CompareAndSwap(0, 1); i++ {
		spinThenYield(i)
	}
	for i := range l.slots {
		for j := 0; l.slots[i].v.Load() != 0; j++ {
			spinThenYield(j)
		}
	}
}

// ReleaseExclusive exits exclusive mode.
func (l *DistRW) ReleaseExclusive() {
	l.writer.Store(0)
}

// ExclusiveHeld reports whether the writer flag is set.
func (l *DistRW) ExclusiveHeld() bool { return l.writer.Load() != 0 }
