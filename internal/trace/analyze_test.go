package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedSnapshot is a hand-built dump with a known shape: one worker ring
// holding a fast insert, a complete range query with all four phases, and an
// op left in flight; plus a watchdog ring with a stall edge. Timestamps are
// fixed so the analyzer and the Chrome rendering are fully deterministic.
func fixedSnapshot() *Snapshot {
	return &Snapshot{
		Wall: time.Unix(1754000000, 0),
		Mono: 60_000,
		Rings: []RingSnap{
			{
				Label: "t0",
				Events: []Event{
					{Seq: 1, Time: 1_000, Type: EvOpBegin, Arg1: OpInsert, Arg2: 42},
					{Seq: 2, Time: 1_800, Type: EvRetire, Arg1: ^uint64(0), Arg2: 3},
					{Seq: 3, Time: 2_000, Type: EvOpEnd, Arg1: OpInsert, Arg2: 1_000},
					{Seq: 4, Time: 10_000, Type: EvOpBegin, Arg1: OpRQ, Arg2: 5},
					{Seq: 5, Time: 10_500, Type: EvTSAdvance, Arg1: 7, Arg2: 500},
					{Seq: 6, Time: 13_500, Type: EvTraverse, Arg1: 9, Arg2: 3_000},
					{Seq: 7, Time: 14_300, Type: EvAnnScan, Arg1: 4, Arg2: 800},
					{Seq: 8, Time: 14_500, Type: EvLimboBag, Arg1: 6, Arg2: 1},
					{Seq: 9, Time: 15_000, Type: EvLimboDone, Arg1: 6, Arg2: 700},
					{Seq: 10, Time: 15_100, Type: EvOpEnd, Arg1: OpRQ, Arg2: 5_100},
					{Seq: 11, Time: 20_000, Type: EvOpBegin, Arg1: OpDelete, Arg2: 13},
				},
			},
			{
				Label: "watchdog",
				Events: []Event{
					{Seq: 1, Time: 55_000, Type: EvStall, Arg1: 0, Arg2: 35_000},
				},
			},
		},
	}
}

func TestBuildReport(t *testing.T) {
	rep := BuildReport(fixedSnapshot())
	if rep.Rings != 2 || rep.Events != 12 {
		t.Fatalf("rings/events = %d/%d, want 2/12", rep.Rings, rep.Events)
	}
	if rep.SpanNs != 54_000 {
		t.Fatalf("span = %d, want 54000", rep.SpanNs)
	}
	if s := rep.Ops["insert"]; s.Count != 1 || s.MeanNs != 1_000 {
		t.Fatalf("insert stat = %+v", s)
	}
	if s := rep.Ops["rq"]; s.Count != 1 || s.MaxNs != 5_100 {
		t.Fatalf("rq stat = %+v", s)
	}
	want := map[string]int64{"ts_wait": 500, "traverse": 3_000, "announce": 800, "limbo": 700}
	for ph, ns := range want {
		if s := rep.Phases[ph]; s.Count != 1 || s.TotalNs != ns {
			t.Fatalf("phase %s = %+v, want total %d", ph, s, ns)
		}
	}
	if rep.TSAdvance != 1 || rep.TSAdopt != 0 {
		t.Fatalf("ts advance/adopt = %d/%d", rep.TSAdvance, rep.TSAdopt)
	}
	if len(rep.Stalls) != 1 || rep.Stalls[0].ThreadID != 0 || rep.Stalls[0].StuckNs != 35_000 {
		t.Fatalf("stalls = %+v", rep.Stalls)
	}
	if len(rep.InFlight) != 1 || rep.InFlight[0].Op != "delete" || rep.InFlight[0].AgeNs != 40_000 {
		t.Fatalf("in-flight = %+v", rep.InFlight)
	}

	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"range-query phases",
		"STALL: thread 0 stuck",
		"IN-FLIGHT: delete on t0",
		"1 advanced, 0 shared",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report text missing %q:\n%s", want, out)
		}
	}
}

// TestChromeTraceGolden pins the exact Chrome trace-event JSON for the fixed
// snapshot. Regenerate with: go test ./internal/trace -run Chrome -update
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixedSnapshot()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden:\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}
