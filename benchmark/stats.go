package main

import (
	"math"
	"sort"
)

// sampler keeps a bounded, evenly spaced subset of a stream: it starts by
// keeping every value and, each time the buffer fills, drops every second
// kept value and doubles its stride. The buffer is allocated once, so the
// measured loop never grows a slice.
type sampler[T any] struct {
	buf   []T
	every uint32 // keep one value in every
	skip  uint32 // values still to pass over before the next keep
}

func newSampler[T any](capacity int) *sampler[T] {
	return &sampler[T]{buf: make([]T, 0, capacity), every: 1}
}

func (s *sampler[T]) add(v T) {
	if s.skip > 0 {
		s.skip--
		return
	}
	s.skip = s.every - 1
	if len(s.buf) == cap(s.buf) {
		j := 0
		for i := 0; i < len(s.buf); i += 2 {
			s.buf[j] = s.buf[i]
			j++
		}
		s.buf = s.buf[:j]
		s.every *= 2
		s.skip = s.every - 1
	}
	s.buf = append(s.buf, v)
}

func (s *sampler[T]) reset() {
	s.buf = s.buf[:0]
	s.every, s.skip = 1, 0
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count), 0 for an empty slice. vs is sorted in place.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// tail returns the highest percentile of the ascending slice that still has
// at least ten samples beyond it, and the value there. With fewer than
// twenty-one samples no percentile above the median qualifies and the median
// is returned as p50.
func tail(sorted []float64) (percentile, value float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := n - 11
	if idx <= n/2 {
		return 50, sorted[n/2]
	}
	return 100 * float64(idx) / float64(n), sorted[idx]
}

// spread is (max-min)/median of vs, 0 when the median is 0.
func spread(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return ratio(hi-lo, median(append([]float64(nil), vs...)))
}

// cv is the coefficient of variation (population standard deviation over
// mean) of vs.
func cv(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	var sq float64
	for _, v := range vs {
		sq += (v - mean) * (v - mean)
	}
	return ratio(math.Sqrt(sq/float64(len(vs))), mean)
}

// ratio is a/b, 0 when b is 0: a layer that did no work reports 0, never a
// NaN the result line could not carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func toFloats(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}
