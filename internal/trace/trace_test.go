package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRingWraparound fills a tiny ring far past capacity and checks the
// snapshot holds exactly the newest capacity-many events, contiguous in
// sequence, with monotone timestamps.
func TestRingWraparound(t *testing.T) {
	rec := NewRecorder(Config{EventsPerRing: 8, SlowOp: -1})
	rg := rec.Ring("t0")
	const total = 100
	for i := uint64(1); i <= total; i++ {
		rg.Emit(EvRetire, i, i*2)
	}
	s := rec.Snapshot()
	if len(s.Rings) != 1 || s.Rings[0].Label != "t0" {
		t.Fatalf("rings = %+v, want one ring t0", s.Rings)
	}
	evs := s.Rings[0].Events
	if len(evs) != 8 {
		t.Fatalf("got %d events after wraparound, want 8", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(total - 7 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d (newest 8 contiguous)", i, ev.Seq, wantSeq)
		}
		if ev.Type != EvRetire || ev.Arg1 != wantSeq || ev.Arg2 != wantSeq*2 {
			t.Fatalf("event %d = %+v, want retire(%d, %d)", i, ev, wantSeq, wantSeq*2)
		}
		if i > 0 && ev.Time < evs[i-1].Time {
			t.Fatalf("timestamps not monotone: %d after %d", ev.Time, evs[i-1].Time)
		}
	}
}

// TestRingConcurrentReaders hammers several writer rings while snapshot
// readers spin; under -race this proves the seqlock protocol is clean, and
// the assertions prove every decoded event is internally consistent (arg2
// always 3×arg1 — a torn read would break the relation).
func TestRingConcurrentReaders(t *testing.T) {
	rec := NewRecorder(Config{EventsPerRing: 16, SlowOp: -1})
	const writers = 4
	const eventsEach = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wi := 0; wi < writers; wi++ {
		rg := rec.Ring("w")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= eventsEach; i++ {
				rg.Emit(EvRetire, i, i*3)
			}
		}()
	}
	var readerWG sync.WaitGroup
	for ri := 0; ri < 2; ri++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := rec.Snapshot()
				for _, rg := range s.Rings {
					for _, ev := range rg.Events {
						if ev.Arg2 != ev.Arg1*3 {
							t.Errorf("torn event: %+v", ev)
							return
						}
						if ev.Arg1 != ev.Seq {
							t.Errorf("seq/arg mismatch: %+v", ev)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	s := rec.Snapshot()
	for _, rg := range s.Rings {
		if len(rg.Events) != 16 {
			t.Fatalf("final ring has %d events, want full 16", len(rg.Events))
		}
		if last := rg.Events[len(rg.Events)-1]; last.Seq != eventsEach {
			t.Fatalf("final seq = %d, want %d", last.Seq, eventsEach)
		}
	}
}

// TestSlowOpCapture proves tail capture: an op above the threshold has its
// events retained even after the ring is overwritten, while fast ops don't.
func TestSlowOpCapture(t *testing.T) {
	rec := NewRecorder(Config{EventsPerRing: 8, SlowOp: 5 * time.Millisecond, SlowOpCap: 2})
	rg := rec.Ring("t0")

	// Fast op: no capture.
	rg.OpBegin(OpInsert, 42)
	rg.OpEnd(OpInsert)
	if s := rec.Snapshot(); len(s.SlowOps) != 0 {
		t.Fatalf("fast op captured: %+v", s.SlowOps)
	}

	// Slow op with an interior phase event.
	rg.OpBegin(OpRQ, 10)
	rg.Emit(EvTraverse, 7, 100)
	time.Sleep(6 * time.Millisecond)
	rg.OpEnd(OpRQ)
	if d := rg.LastOpDur(); d < 5*time.Millisecond {
		t.Fatalf("LastOpDur = %v, want >= 5ms", d)
	}

	// Overwrite the ring completely.
	for i := 0; i < 32; i++ {
		rg.Emit(EvRetire, uint64(i), 0)
	}
	s := rec.Snapshot()
	if len(s.SlowOps) != 1 {
		t.Fatalf("slow ops = %d, want 1", len(s.SlowOps))
	}
	op := s.SlowOps[0]
	if op.Kind != OpRQ || op.Label != "t0" || op.Dur < 5*time.Millisecond {
		t.Fatalf("slow op = %+v", op)
	}
	// Begin, traverse, end — all three retained despite the overwrite.
	if len(op.Events) != 3 || op.Events[0].Type != EvOpBegin ||
		op.Events[1].Type != EvTraverse || op.Events[2].Type != EvOpEnd {
		t.Fatalf("slow op events = %+v, want [op_begin traverse op_end]", op.Events)
	}
}

// TestDumpRoundTrip serializes a live snapshot and parses it back.
func TestDumpRoundTrip(t *testing.T) {
	rec := NewRecorder(Config{EventsPerRing: 8, SlowOp: time.Nanosecond})
	a := rec.Ring("s0/t0")
	b := rec.Ring("watchdog")
	a.OpBegin(OpRQ, 5)
	a.Emit(EvTSAdvance, 2, 120)
	a.OpEnd(OpRQ)
	b.Emit(EvStall, 3, uint64(70*time.Millisecond))

	s := rec.Snapshot()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.Mono != s.Mono || got.Wall.UnixNano() != s.Wall.UnixNano() {
		t.Fatalf("clock anchors differ: got (%d,%d) want (%d,%d)",
			got.Mono, got.Wall.UnixNano(), s.Mono, s.Wall.UnixNano())
	}
	if len(got.Rings) != 2 || got.Rings[0].Label != "s0/t0" || got.Rings[1].Label != "watchdog" {
		t.Fatalf("rings = %+v", got.Rings)
	}
	if len(got.Rings[0].Events) != len(s.Rings[0].Events) {
		t.Fatalf("ring 0 events: got %d want %d", len(got.Rings[0].Events), len(s.Rings[0].Events))
	}
	for i, ev := range got.Rings[0].Events {
		if ev != s.Rings[0].Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, ev, s.Rings[0].Events[i])
		}
	}
	if len(got.SlowOps) != 1 || got.SlowOps[0].Kind != OpRQ ||
		len(got.SlowOps[0].Events) != len(s.SlowOps[0].Events) {
		t.Fatalf("slow ops = %+v, want %+v", got.SlowOps, s.SlowOps)
	}
	if _, err := ReadSnapshot(bytes.NewBufferString("NOTATRACE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A version-1 dump has the same layout but older event numbering.
	v1 := append([]byte(dumpMagicV1), buf.Bytes()[len(dumpMagic):]...)
	if _, err := ReadSnapshot(bytes.NewReader(v1)); err == nil ||
		!strings.Contains(err.Error(), "version 1 dump, re-record") {
		t.Fatalf("version-1 dump: err = %v, want a re-record refusal", err)
	}
}

// TestNilSafety: every entry point must be inert on nil receivers — this is
// the zero-cost disabled path the hot code relies on.
func TestNilSafety(t *testing.T) {
	var rec *Recorder
	rg := rec.Ring("x")
	if rg != nil {
		t.Fatal("nil recorder returned a ring")
	}
	rg.Emit(EvRetire, 1, 2)
	rg.OpBegin(OpInsert, 1)
	rg.OpEnd(OpInsert)
	if rg.Label() != "" || rg.LastOpDur() != 0 {
		t.Fatal("nil ring not inert")
	}
	s := rec.Snapshot()
	if len(s.Rings) != 0 || s.Mono == 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

// TestMaxRings: past the cap, Ring degrades to nil and the refusal is
// counted so dumps can flag partial traces.
func TestMaxRings(t *testing.T) {
	rec := NewRecorder(Config{MaxRings: 2, EventsPerRing: 8})
	if rec.Ring("a") == nil || rec.Ring("b") == nil {
		t.Fatal("rings under cap refused")
	}
	if rec.Ring("c") != nil {
		t.Fatal("ring past cap allocated")
	}
	if s := rec.Snapshot(); s.RefusedRings != 1 {
		t.Fatalf("refused = %d, want 1", s.RefusedRings)
	}
}
