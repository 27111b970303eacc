package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// This file is the dump analyzer behind cmd/rqtrace: it folds a Snapshot
// into per-op-kind latency statistics, the paper's per-phase range-query
// breakdown (ts_wait / traverse / announce / limbo), stall findings, and a
// Chrome trace-event rendering for Perfetto.

// Stat summarizes one duration population in nanoseconds.
type Stat struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MeanNs  int64 `json:"mean_ns"`
	P50Ns   int64 `json:"p50_ns"`
	P90Ns   int64 `json:"p90_ns"`
	P99Ns   int64 `json:"p99_ns"`
	MaxNs   int64 `json:"max_ns"`
}

func makeStat(durs []int64) Stat {
	if len(durs) == 0 {
		return Stat{}
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	var total int64
	for _, d := range durs {
		total += d
	}
	q := func(p float64) int64 {
		i := int(p * float64(len(durs)-1))
		return durs[i]
	}
	return Stat{
		Count:   len(durs),
		TotalNs: total,
		MeanNs:  total / int64(len(durs)),
		P50Ns:   q(0.50),
		P90Ns:   q(0.90),
		P99Ns:   q(0.99),
		MaxNs:   durs[len(durs)-1],
	}
}

// StallInfo is one watchdog stall-edge event found in the dump.
type StallInfo struct {
	Ring     string `json:"ring"` // ring that recorded the edge (the watchdog's)
	ThreadID uint64 `json:"thread_id"`
	StuckNs  int64  `json:"stuck_ns"`
	AtNs     int64  `json:"at_ns"`
}

// InFlightOp is an operation whose begin has no matching end in the dump —
// in a stall dump, the op the stuck thread is wedged inside.
type InFlightOp struct {
	Ring    string `json:"ring"`
	Op      string `json:"op"`
	Arg     uint64 `json:"arg"` // key (or RQ low)
	StartNs int64  `json:"start_ns"`
	AgeNs   int64  `json:"age_ns"` // snapshot time minus start
}

// Report is the analyzed form of a Snapshot.
type Report struct {
	Rings     int             `json:"rings"`
	Events    int             `json:"events"`
	SpanNs    int64           `json:"span_ns"` // earliest to latest event
	Ops       map[string]Stat `json:"ops"`     // by op kind name
	Phases    map[string]Stat `json:"phases"`  // ts_wait/traverse/announce/limbo
	DCSSRetry int             `json:"dcss_retries"`
	TSAdvance int             `json:"ts_advanced"`
	TSAdopt   int             `json:"ts_shared"`
	TSPinned  int             `json:"ts_pinned"`
	CrossRQ   Stat            `json:"cross_rq"`
	Stalls    []StallInfo     `json:"stalls,omitempty"`
	InFlight  []InFlightOp    `json:"in_flight,omitempty"`
	SlowOps   int             `json:"slow_ops"`
	Refused   uint64          `json:"refused_rings,omitempty"`
}

// phaseOf maps an event to its RQ phase bucket, if any. The duration is in
// arg2 for every phase-carrying event.
func phaseOf(t EventType) (string, bool) {
	switch t {
	case EvTSAdvance, EvTSAdopt, EvTSPinned:
		return "ts_wait", true
	case EvTraverse:
		return "traverse", true
	case EvAnnScan:
		return "announce", true
	case EvLimboDone:
		return "limbo", true
	}
	return "", false
}

// BuildReport analyzes a snapshot.
func BuildReport(s *Snapshot) *Report {
	rep := &Report{
		Rings:   len(s.Rings),
		Ops:     map[string]Stat{},
		Phases:  map[string]Stat{},
		SlowOps: len(s.SlowOps),
		Refused: s.RefusedRings,
	}
	opDurs := map[string][]int64{}
	phDurs := map[string][]int64{}
	var xrqDurs []int64
	var tMin, tMax int64
	for _, rg := range s.Rings {
		var open *InFlightOp
		for _, ev := range rg.Events {
			rep.Events++
			if tMin == 0 || ev.Time < tMin {
				tMin = ev.Time
			}
			if ev.Time > tMax {
				tMax = ev.Time
			}
			if ph, ok := phaseOf(ev.Type); ok {
				phDurs[ph] = append(phDurs[ph], int64(ev.Arg2))
			}
			switch ev.Type {
			case EvOpBegin:
				open = &InFlightOp{
					Ring:    rg.Label,
					Op:      OpName(ev.Arg1),
					Arg:     ev.Arg2,
					StartNs: ev.Time,
				}
			case EvOpEnd:
				open = nil
				k := OpName(ev.Arg1)
				opDurs[k] = append(opDurs[k], int64(ev.Arg2))
			case EvDCSSRetry:
				rep.DCSSRetry++
			case EvTSAdvance:
				rep.TSAdvance++
			case EvTSAdopt:
				rep.TSAdopt++
			case EvTSPinned:
				rep.TSPinned++
			case EvCrossRQEnd:
				xrqDurs = append(xrqDurs, int64(ev.Arg2))
			case EvStall:
				rep.Stalls = append(rep.Stalls, StallInfo{
					Ring:     rg.Label,
					ThreadID: ev.Arg1,
					StuckNs:  int64(ev.Arg2),
					AtNs:     ev.Time,
				})
			}
		}
		if open != nil {
			open.AgeNs = s.Mono - open.StartNs
			if open.AgeNs < 0 {
				open.AgeNs = 0
			}
			rep.InFlight = append(rep.InFlight, *open)
		}
	}
	if tMax > tMin {
		rep.SpanNs = tMax - tMin
	}
	for k, d := range opDurs {
		rep.Ops[k] = makeStat(d)
	}
	for k, d := range phDurs {
		rep.Phases[k] = makeStat(d)
	}
	rep.CrossRQ = makeStat(xrqDurs)
	sort.Slice(rep.Stalls, func(a, b int) bool { return rep.Stalls[a].AtNs < rep.Stalls[b].AtNs })
	return rep
}

func fmtNs(ns int64) string {
	return time.Duration(ns).Round(10 * time.Nanosecond).String()
}

// phaseOrder fixes the RQ phase table's row order to protocol order.
var phaseOrder = []string{"ts_wait", "traverse", "announce", "limbo"}

// WriteText renders the report as aligned human-readable tables.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace: %d rings, %d events, span %s, %d slow ops\n",
		r.Rings, r.Events, fmtNs(r.SpanNs), r.SlowOps)
	if r.Refused > 0 {
		fmt.Fprintf(w, "WARNING: %d ring allocations refused (MaxRings); trace is partial\n", r.Refused)
	}

	if len(r.Ops) > 0 {
		fmt.Fprintf(w, "\n%-10s %8s %10s %10s %10s %10s %10s\n",
			"op", "count", "mean", "p50", "p90", "p99", "max")
		kinds := make([]string, 0, len(r.Ops))
		for k := range r.Ops {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			s := r.Ops[k]
			fmt.Fprintf(w, "%-10s %8d %10s %10s %10s %10s %10s\n",
				k, s.Count, fmtNs(s.MeanNs), fmtNs(s.P50Ns), fmtNs(s.P90Ns),
				fmtNs(s.P99Ns), fmtNs(s.MaxNs))
		}
	}

	var phTotal int64
	for _, ph := range phaseOrder {
		phTotal += r.Phases[ph].TotalNs
	}
	if phTotal > 0 {
		fmt.Fprintf(w, "\nrange-query phases (share of attributed RQ time):\n")
		fmt.Fprintf(w, "%-10s %8s %10s %10s %10s %7s\n",
			"phase", "count", "mean", "p99", "total", "share")
		for _, ph := range phaseOrder {
			s, ok := r.Phases[ph]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-10s %8d %10s %10s %10s %6.1f%%\n",
				ph, s.Count, fmtNs(s.MeanNs), fmtNs(s.P99Ns), fmtNs(s.TotalNs),
				100*float64(s.TotalNs)/float64(phTotal))
		}
		fmt.Fprintf(w, "timestamps: %d advanced, %d shared, %d pinned; %d DCSS retries\n",
			r.TSAdvance, r.TSAdopt, r.TSPinned, r.DCSSRetry)
	}
	if r.CrossRQ.Count > 0 {
		fmt.Fprintf(w, "cross-shard RQs: %d, mean %s, p99 %s\n",
			r.CrossRQ.Count, fmtNs(r.CrossRQ.MeanNs), fmtNs(r.CrossRQ.P99Ns))
	}

	for _, st := range r.Stalls {
		fmt.Fprintf(w, "\nSTALL: thread %d stuck %s (flagged by %s at t=%s)\n",
			st.ThreadID, fmtNs(st.StuckNs), st.Ring, fmtNs(st.AtNs))
	}
	for _, op := range r.InFlight {
		fmt.Fprintf(w, "IN-FLIGHT: %s on %s (arg %d) open for %s at dump time\n",
			op.Op, op.Ring, op.Arg, fmtNs(op.AgeNs))
	}
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// spans, "i" instants, "M" metadata) understood by Perfetto and
// chrome://tracing. Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace renders the snapshot as Chrome trace-event JSON: one
// Perfetto "thread" per ring, ops as complete spans, RQ phases as nested
// spans, and punctual events (retire, advance, stall, ...) as instants.
func WriteChromeTrace(w io.Writer, s *Snapshot) error {
	evs := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "ebrrq"},
	}}
	for ti, rg := range s.Rings {
		tid := ti + 1
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": rg.Label},
		})
		var beginArg uint64
		for _, ev := range rg.Events {
			switch ev.Type {
			case EvOpBegin:
				beginArg = ev.Arg2 // span emitted at the matching end
			case EvOpEnd:
				dur := int64(ev.Arg2)
				evs = append(evs, chromeEvent{
					Name: OpName(ev.Arg1), Ph: "X",
					Ts: us(ev.Time - dur), Dur: us(dur),
					Pid: 1, Tid: tid,
					Args: map[string]any{"arg": beginArg},
				})
			case EvCrossRQEnd:
				dur := int64(ev.Arg2)
				evs = append(evs, chromeEvent{
					Name: "cross_rq", Ph: "X",
					Ts: us(ev.Time - dur), Dur: us(dur),
					Pid: 1, Tid: tid,
					Args: map[string]any{"ts": ev.Arg1},
				})
			case EvStall:
				evs = append(evs, chromeEvent{
					Name: fmt.Sprintf("stall t%d", ev.Arg1), Ph: "i",
					Ts: us(ev.Time), Pid: 1, Tid: tid, S: "g",
					Args: map[string]any{"stuck_ns": ev.Arg2},
				})
			default:
				if ph, ok := phaseOf(ev.Type); ok {
					dur := int64(ev.Arg2)
					evs = append(evs, chromeEvent{
						Name: ph, Ph: "X",
						Ts: us(ev.Time - dur), Dur: us(dur),
						Pid: 1, Tid: tid,
						Args: map[string]any{"a1": ev.Arg1},
					})
					continue
				}
				evs = append(evs, chromeEvent{
					Name: ev.Type.String(), Ph: "i",
					Ts: us(ev.Time), Pid: 1, Tid: tid, S: "t",
					Args: map[string]any{"a1": ev.Arg1, "a2": ev.Arg2},
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ns"})
}
