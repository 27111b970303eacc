package rwlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebrrq/internal/fault"
)

// exerciseRW checks mutual exclusion invariants for any reader/writer lock.
func exerciseRW(t *testing.T, acqS func(tid int), relS func(tid int), acqX, relX func()) {
	t.Helper()
	var readers, writers atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if (i+tid)%7 == 0 {
					acqX()
					if writers.Add(1) != 1 || readers.Load() != 0 {
						violations.Add(1)
					}
					writers.Add(-1)
					relX()
				} else {
					acqS(tid)
					readers.Add(1)
					if writers.Load() != 0 {
						violations.Add(1)
					}
					readers.Add(-1)
					relS(tid)
				}
			}
		}(w)
	}
	time.Sleep(250 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual-exclusion violations", v)
	}
}

func TestFetchAddRWExclusion(t *testing.T) {
	var l FetchAddRW
	exerciseRW(t,
		func(int) { l.AcquireShared() }, func(int) { l.ReleaseShared() },
		l.AcquireExclusive, l.ReleaseExclusive)
}

func TestDistRWExclusion(t *testing.T) {
	l := NewDistRW(8)
	exerciseRW(t, l.AcquireShared, l.ReleaseShared, l.AcquireExclusive, l.ReleaseExclusive)
}

func TestSharedConcurrency(t *testing.T) {
	var l FetchAddRW
	l.AcquireShared()
	done := make(chan bool, 1)
	go func() {
		l.AcquireShared() // must not block
		l.ReleaseShared()
		done <- true
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shared acquisition blocked by another shared holder")
	}
	l.ReleaseShared()
}

func TestExclusiveHeld(t *testing.T) {
	var l FetchAddRW
	if l.ExclusiveHeld() {
		t.Fatal("fresh lock reports exclusive")
	}
	l.AcquireExclusive()
	if !l.ExclusiveHeld() {
		t.Fatal("exclusive not reported")
	}
	l.ReleaseExclusive()

	d := NewDistRW(2)
	if d.ExclusiveHeld() {
		t.Fatal("fresh DistRW reports exclusive")
	}
	d.AcquireExclusive()
	if !d.ExclusiveHeld() {
		t.Fatal("DistRW exclusive not reported")
	}
	d.ReleaseExclusive()
}

func TestDistRWAbortAccounting(t *testing.T) {
	l := NewDistRW(2)
	l.AcquireExclusive()
	done := make(chan struct{})
	go func() {
		l.AcquireShared(0) // will abort at least once
		l.ReleaseShared(0)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	l.ReleaseExclusive()
	<-done
	if l.Aborts.Load() == 0 {
		t.Fatal("expected at least one emulated-HTM abort")
	}
}

// TestFetchAddRWStalledBackoffRelease is the regression for the wedge
// where ReleaseExclusive stored zero over a backing-off reader's transient
// increment: the reader is parked between its Add(1) and Add(-1), the writer
// releases, and the reader's decrement must bring the word back to zero
// rather than underflow it with writerBit stuck on.
func TestFetchAddRWStalledBackoffRelease(t *testing.T) {
	if !fault.Enabled {
		t.Skip("requires -tags failpoints")
	}
	defer fault.Reset()
	parked, resume := make(chan struct{}), make(chan struct{})
	fault.Arm("rwlock.shared.backoff", fault.Hook(func(string) {
		close(parked)
		<-resume
	}).Once())

	var l FetchAddRW
	l.AcquireExclusive()
	done := make(chan struct{})
	go func() {
		l.AcquireShared() // sees the writer, parks mid back-off
		l.ReleaseShared()
		close(done)
	}()
	<-parked
	l.ReleaseExclusive()
	close(resume)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("reader wedged after the writer released: state = %#x", l.state.Load())
	}
	if v := l.state.Load(); v != 0 {
		t.Fatalf("state = %#x after all holders released, want 0", v)
	}
	// No other goroutine is left, so a second writer must get in first try.
	if !l.state.CompareAndSwap(0, writerBit) {
		t.Fatalf("second exclusive acquisition failed: state = %#x", l.state.Load())
	}
	l.ReleaseExclusive()
}
