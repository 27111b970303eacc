package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ebrrq"
	"ebrrq/internal/trace"
)

func TestRunTrialCountsOps(t *testing.T) {
	r, err := RunTrial(TrialCfg{
		DS: ebrrq.SkipList, Tech: ebrrq.LockFree, KeyRange: 1024,
		Threads:  []Mix{Updates5050, RQOnly(64), {SearchPct: 100}},
		Duration: 100 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.Updates == 0 || r.RQs == 0 || r.Searches == 0 {
		t.Fatalf("zero counts: %+v", r)
	}
	if r.Ops != r.Updates+r.RQs+r.Searches {
		t.Fatalf("op classes don't sum: %+v", r)
	}
	if r.TotalOpsPerUs() <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestRunTrialUnsupported(t *testing.T) {
	_, err := RunTrial(TrialCfg{DS: ebrrq.ABTree, Tech: ebrrq.Snap,
		Threads: []Mix{Updates5050}, Duration: 10 * time.Millisecond})
	if err == nil {
		t.Fatal("expected error for unsupported pair")
	}
}

func TestPrefillReachesTarget(t *testing.T) {
	set, err := ebrrq.New(ebrrq.LFBST, ebrrq.Lock, 2)
	if err != nil {
		t.Fatal(err)
	}
	Prefill(set, 2048, 5)
	th := set.NewThread()
	res := th.RangeQuery(0, 2047)
	if len(res) != 1024 {
		t.Fatalf("prefill produced %d keys, want 1024", len(res))
	}
}

func TestDefaultKeyRange(t *testing.T) {
	if DefaultKeyRange(ebrrq.ABTree, 1) != 1_000_000 {
		t.Fatal("ABTree key range")
	}
	if DefaultKeyRange(ebrrq.LFList, 1) != 10_000 {
		t.Fatal("list key range")
	}
	if DefaultKeyRange(ebrrq.SkipList, 10) != 10_000 {
		t.Fatal("scaling")
	}
	if DefaultKeyRange(ebrrq.LFList, 1<<30) != 128 {
		t.Fatal("floor")
	}
}

func TestHistBucket(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 1023: 10, 1024: 11}
	for v, want := range cases {
		if got := histBucket(v); got != want {
			t.Fatalf("histBucket(%d) = %d, want %d", v, got, want)
		}
	}
	if BucketLabel(0) != "0" || BucketLabel(3) != "4-7" {
		t.Fatal("bucket labels")
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table(Row{Label: "h", Cells: []string{"a", "bb"}},
		[]Row{{Label: "long-label", Cells: []string{"1", "2"}}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != len(lines[1]) {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

// TestRQBenchTraceSplits runs one tiny traced cell and checks the point
// carries the flight-recorder phase splits, that the binary dump sink
// receives a parseable dump, and that the run opens with a warm-up trial
// that is announced on Out but discarded: it yields no point and no cell
// line.
func TestRQBenchTraceSplits(t *testing.T) {
	var dump, out bytes.Buffer
	points, err := RunRQBench(RQBenchCfg{
		DSs:   []ebrrq.DataStructure{ebrrq.SkipList},
		Techs: []ebrrq.Mode{ebrrq.LockFree}, Threads: []int{2},
		Trials: 1, Duration: 30 * time.Millisecond, Scale: 100,
		RQPcts:    []int{50},
		TraceDump: &dump,
		Out:       &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d, want 1 (the warm-up trial must not be returned)", len(points))
	}
	pt := points[0]
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "# warm-up: ") ||
		!strings.HasPrefix(lines[1], pt.Key()+" ") || !strings.Contains(lines[2], "rq phases:") {
		t.Fatalf("output is not warm-up line, cell line, phase line:\n%s", out.String())
	}
	if pt.RQTraverseNs == 0 || pt.RQLimboNs == 0 || pt.RQAnnounceNs == 0 {
		t.Fatalf("phase splits missing: %+v", pt)
	}
	if split := pt.PhaseSplit(); !strings.Contains(split, "traverse") {
		t.Fatalf("PhaseSplit = %q", split)
	}
	snap, err := trace.ReadSnapshot(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatalf("trace dump does not parse: %v", err)
	}
	if len(snap.Rings) == 0 {
		t.Fatal("trace dump has no rings")
	}
}

// TestRQBenchNoTrace checks the disabled path leaves the splits zero, and
// that an rq_pct 0 cell is update-only.
func TestRQBenchNoTrace(t *testing.T) {
	points, err := RunRQBench(RQBenchCfg{
		DSs:   []ebrrq.DataStructure{ebrrq.SkipList},
		Techs: []ebrrq.Mode{ebrrq.LockFree}, Threads: []int{1},
		Trials: 1, Duration: 20 * time.Millisecond, Scale: 100,
		RQPcts:  []int{0, 50},
		NoTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	if pt := points[0]; pt.RQPct != 0 || pt.RQsPerUs != 0 || pt.UpdatesPerUs <= 0 {
		t.Fatalf("rq_pct 0 cell is not update-only: %+v", pt)
	}
	if pt := points[1]; pt.PhaseSplit() != "" {
		t.Fatalf("NoTrace run still has phase data: %+v", pt)
	}
}

// TestRQBenchTechniqueCells: listing [EBR, Bundle] emits an interleaved
// A/B pair per cell; the bundle point collapses the mode dimension (one
// cell anchored at the first supported mode, even with two modes listed),
// and carries the technique key suffix.
func TestRQBenchTechniqueCells(t *testing.T) {
	points, err := RunRQBench(RQBenchCfg{
		DSs:   []ebrrq.DataStructure{ebrrq.LazyList},
		Techs: []ebrrq.Mode{ebrrq.Lock, ebrrq.LockFree}, Threads: []int{2},
		Trials: 1, Duration: 30 * time.Millisecond, Scale: 100,
		RQPcts:     []int{10},
		Techniques: []ebrrq.Technique{ebrrq.EBR, ebrrq.Bundle},
		NoTrace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 EBR modes + 1 anchored bundle cell.
	var ebrPts, bundlePts int
	for _, pt := range points {
		switch pt.Technique {
		case "ebr":
			ebrPts++
			if strings.Contains(pt.Key(), "/bundle") {
				t.Fatalf("EBR point has bundle key: %q", pt.Key())
			}
		case "bundle":
			bundlePts++
			if !strings.HasSuffix(pt.Key(), "/bundle") {
				t.Fatalf("bundle key missing suffix: %q", pt.Key())
			}
			if pt.Tech != ebrrq.Lock.String() {
				t.Fatalf("bundle cell anchored at %q, want first supported mode %q",
					pt.Tech, ebrrq.Lock.String())
			}
		default:
			t.Fatalf("unexpected technique %q", pt.Technique)
		}
		if pt.Ops == 0 {
			t.Fatalf("cell %s ran no ops", pt.Key())
		}
	}
	if ebrPts != 2 || bundlePts != 1 {
		t.Fatalf("got %d EBR / %d bundle points, want 2 / 1", ebrPts, bundlePts)
	}
}

// TestTechniqueAnchor pins the mode-collapse rule.
func TestTechniqueAnchor(t *testing.T) {
	modes := []ebrrq.Mode{ebrrq.Unsafe, ebrrq.LockFree, ebrrq.Lock}
	if m, ok := techniqueAnchor(modes, ebrrq.SkipList, ebrrq.Bundle); !ok || m != ebrrq.LockFree {
		t.Fatalf("anchor = %v/%v, want LockFree (first supported)", m, ok)
	}
	if _, ok := techniqueAnchor(modes, ebrrq.LFBST, ebrrq.Bundle); ok {
		t.Fatal("anchor found for an unsupported structure")
	}
}

// TestExperimentsSmoke runs each experiment driver at a tiny scale to make
// sure every figure/table can be regenerated end to end.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is slow")
	}
	var buf bytes.Buffer
	cfg := ExpCfg{Threads: 2, Scale: 1 << 8, Duration: 20 * time.Millisecond, Out: &buf, Seed: 1}
	cfg.Exp1()
	if !strings.Contains(buf.String(), "[ABTree]") || !strings.Contains(buf.String(), "Lock-free") {
		t.Fatalf("Exp1 output incomplete:\n%s", buf.String())
	}
	buf.Reset()
	cfg.Exp2()
	if !strings.Contains(buf.String(), "rq=4") {
		t.Fatal("Exp2 output incomplete")
	}
	buf.Reset()
	cfg.Exp3()
	if !strings.Contains(buf.String(), "RQ throughput") || !strings.Contains(buf.String(), "Update throughput") {
		t.Fatal("Exp3 output incomplete")
	}
	buf.Reset()
	cfg.Exp4()
	if !strings.Contains(buf.String(), "SkipList") {
		t.Fatal("Exp4 output incomplete")
	}
	buf.Reset()
	cfg.Exp1b()
	if !strings.Contains(buf.String(), "limbo") {
		t.Fatal("Exp1b output incomplete")
	}
}
