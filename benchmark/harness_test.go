package main

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"regexp"
	"testing"

	"ebrrq"
)

// streamHash digests the first n operations of a worker's stream.
func streamHash(w *workload, seed int64, worker, n int) uint64 {
	g := newOpGen(seed, worker, w.roles[worker], w.keyRange, w.rqWidth)
	h := fnv.New64a()
	var b [17]byte
	for i := 0; i < n; i++ {
		o := g.next()
		b[0] = byte(o.kind)
		for j := 0; j < 8; j++ {
			b[1+j] = byte(uint64(o.key) >> (8 * j))
			b[9+j] = byte(uint64(o.hi) >> (8 * j))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestOpStreamDependsOnlyOnSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		seen := map[uint64]string{}
		for worker := 0; worker < numWorkers; worker++ {
			a, b := streamHash(w, 7, worker, 20000), streamHash(w, 7, worker, 20000)
			if a != b {
				t.Errorf("%s worker %d: same seed gave different streams", w.name, worker)
			}
			if c := streamHash(w, 8, worker, 20000); c == a {
				t.Errorf("%s worker %d: seeds 7 and 8 gave the same stream", w.name, worker)
			}
			seen[a] = w.name
		}
		if len(seen) != numWorkers {
			t.Errorf("%s: the two workers share one stream", w.name)
		}
	}
}

func TestOpStreamHonoursMixAndRange(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for worker, r := range w.roles {
			g := newOpGen(3, worker, r, w.keyRange, w.rqWidth)
			var counts [numClasses]int
			const n = 200000
			for j := 0; j < n; j++ {
				o := g.next()
				counts[o.kind]++
				if o.key < 0 || o.key >= w.keyRange {
					t.Fatalf("%s: key %d outside [0, %d)", w.name, o.key, w.keyRange)
				}
				if o.kind == opRQ && (o.hi-o.key+1 != w.rqWidth || o.hi >= w.keyRange) {
					t.Fatalf("%s: range query [%d, %d] is not %d keys inside the range", w.name, o.key, o.hi, w.rqWidth)
				}
			}
			for c, share := range r {
				want := float64(share) / mixUnits
				got := float64(counts[c]) / n
				if d := got - want; d > 0.005 || d < -0.005 {
					t.Errorf("%s worker %d: %s share %.4f, want %.4f", w.name, worker, classNames[c], got, want)
				}
			}
		}
	}
}

func TestMedianSpreadAndCV(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three passes = %v, want the middle one", got)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two passes = %v, want their mean", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	if got := spread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("spread = %v, want (110-90)/100", got)
	}
	if got := cv([]float64{5, 5, 5}); got != 0 {
		t.Errorf("cv of a constant = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio by zero = %v, want 0", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	asc := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	// 1000 samples: index 989 has exactly ten samples (990..999) beyond it.
	p, v := tail(asc(1000))
	if v != 989 || p != 98.9 {
		t.Errorf("tail of 1000 = p%v at %v, want p98.9 at 989", p, v)
	}
	// Too few samples for anything above the median.
	if p, v := tail(asc(15)); p != 50 || v != 7 {
		t.Errorf("tail of 15 = p%v at %v, want the median", p, v)
	}
	if p, v := tail(nil); p != 0 || v != 0 {
		t.Errorf("tail of nothing = p%v at %v", p, v)
	}
}

func TestSamplerStaysBoundedAndEven(t *testing.T) {
	s := newSampler[int](8)
	for i := 0; i < 100; i++ {
		s.add(i)
	}
	if len(s.buf) > 8 || cap(s.buf) != 8 {
		t.Fatalf("sampler grew to len %d cap %d", len(s.buf), cap(s.buf))
	}
	for i := 1; i < len(s.buf); i++ {
		if s.buf[i]-s.buf[i-1] != int(s.every) {
			t.Fatalf("kept values %v are not evenly spaced by %d", s.buf, s.every)
		}
	}
	s.reset()
	s.add(1)
	if len(s.buf) != 1 || s.every != 1 {
		t.Errorf("reset left len %d every %d", len(s.buf), s.every)
	}
}

func TestCheckRQ(t *testing.T) {
	kv := func(keys ...int64) []ebrrq.KV {
		out := make([]ebrrq.KV, len(keys))
		for i, k := range keys {
			out[i] = ebrrq.KV{Key: k, Value: k}
		}
		return out
	}
	if err := checkRQ(kv(3, 5, 9), 3, 9); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	if err := checkRQ(nil, 3, 9); err != nil {
		t.Errorf("empty result rejected: %v", err)
	}
	for name, bad := range map[string][]ebrrq.KV{
		"unsorted":    kv(5, 3),
		"duplicate":   kv(5, 5),
		"below range": kv(2, 5),
		"above range": kv(5, 10),
		"wrong value": {{Key: 5, Value: 6}},
	} {
		if checkRQ(bad, 3, 9) == nil {
			t.Errorf("%s result accepted", name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness has %d", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q or bound %v out of limits", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q out of limits", m.Name, m.Unit)
		}
	}

	if bf.RunSeconds < minSeconds || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d leaves a pass under five seconds or is over the cap", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
}

// A summary must carry every metric the tables name and nothing else, or the
// result line would silently report a 0 for a metric nobody computed.
func TestSummaryCompleteness(t *testing.T) {
	s := summary{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, m := range endToEnd {
		s.e2e[m.Name] = 1
	}
	for _, m := range perLayer {
		s.layer[m.Name] = 1
	}
	if errs := s.check(true); len(errs) != 0 {
		t.Errorf("a complete summary was rejected: %v", errs)
	}
	delete(s.layer, "rqprov.rq_limbo_share")
	s.layer["rqprov.typo"] = 1
	if errs := s.check(true); len(errs) != 2 {
		t.Errorf("a missing and a stray metric gave %d errors: %v", len(errs), errs)
	}
	if errs := s.check(false); len(errs) != 0 {
		t.Errorf("per-layer metrics were checked on a run without a traced pass: %v", errs)
	}

	line := s.line(true, false)
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("an untraced result line carries %d metrics, want %d", len(line.Metrics), len(endToEnd))
	}
	line = s.line(true, true)
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("a traced result line carries %d metrics, want %d", len(line.Metrics), len(perLayer))
	}
}
