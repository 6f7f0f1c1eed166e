package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLevels are the tail percentiles the report may quote, highest
// first.
var tailLevels = []float64{99.99, 99.9, 99, 90}

// tailLevel returns the highest percentile in tailLevels that leaves at
// least minBeyond of n samples above it, or 0 when even p90 does not.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		// Rounded, so 10000 samples count 10 beyond p99.9, not 9.99...
		if math.Round(float64(n)*(100-p)/100*1e6) >= minBeyond*1e6 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// mean returns the arithmetic mean of xs, or 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs (the mean of the middle two for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// reservoir keeps a uniform random sample of at most cap(buf) values out
// of every value offered, in memory fixed at construction, so that the
// sample buffer never grows during a measured phase.
type reservoir struct {
	buf  []float64
	seen int64
	rng  uint64
}

func newReservoir(size int, seed int64) *reservoir {
	return &reservoir{buf: make([]float64, 0, size), rng: uint64(seed)*0x9E3779B97F4A7C15 | 1}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	// Algorithm R: keep the new value with probability cap/seen.
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := int64(r.rng % uint64(r.seen)); j < int64(len(r.buf)) {
		r.buf[j] = v
	}
}

// latencySummary is a timing distribution as the report quotes it: the
// median, p99, and the highest tail percentile with at least minBeyond
// samples beyond it, with the sample count.
type latencySummary struct {
	N         int
	P50, P99  float64
	TailLevel float64
	Tail      float64
}

// summarize pools the samples of every window of a run.
func summarize(windows [][]float64) latencySummary {
	s := slices.Concat(windows...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: percentile(s, 50), P99: percentile(s, 99)}
	if lvl := tailLevel(len(s)); lvl > 0 {
		out.TailLevel = lvl
		out.Tail = percentile(s, lvl)
	}
	return out
}

// interval is a closed-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent not covered by any child, with
// children clipped to the parent and overlaps between children counted
// once.
func selfTime(parent interval, children []interval) int64 {
	if parent.end <= parent.start {
		return 0
	}
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	curStart, curEnd := int64(0), int64(0)
	open := false
	for _, c := range cs {
		if open && c.start <= curEnd {
			if c.end > curEnd {
				curEnd = c.end
			}
			continue
		}
		if open {
			covered += curEnd - curStart
		}
		curStart, curEnd, open = c.start, c.end, true
	}
	if open {
		covered += curEnd - curStart
	}
	return parent.end - parent.start - covered
}

// minWindowSamples is the fewest samples a window needs for its p99 to
// have minBeyond samples beyond it.
const minWindowSamples = 100 * minBeyond

// windowed summarises samples taken in consecutive windows of a run by
// the median over windows of each window's p50 and p99. A stall that
// hits a few windows moves their percentiles but not the median, so
// runs agree with each other better than one pooled percentile would.
// Windows with too few samples for a p99 are merged with the next.
func windowed(windows [][]float64) (p50, p99 float64, used int) {
	var p50s, p99s []float64
	var cur []float64
	flush := func() {
		sort.Float64s(cur)
		p50s = append(p50s, percentile(cur, 50))
		p99s = append(p99s, percentile(cur, 99))
		cur = nil
	}
	for _, w := range windows {
		cur = append(cur, w...)
		if len(cur) >= minWindowSamples {
			flush()
		}
	}
	if len(cur) > 0 && (len(p99s) == 0 || len(cur) >= minWindowSamples/2) {
		flush()
	}
	return median(p50s), median(p99s), len(p99s)
}
