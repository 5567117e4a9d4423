package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p90 needs at least 100 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (the sample at rank
// ceil(q·n)) and whether at least minBeyond samples lie beyond it. xs need
// not be sorted.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the middle of xs, averaging the two middle samples when n is
// even (Python's statistics.median).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), the rule the spread of
// repeated benchmark runs is judged by. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Position i·(n+1)/4, one-based; outside [1, n] Python extrapolates
		// from the nearest pair, and so does this.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// failRatio is failed ÷ attempted; a refused operation counts as failed.
func failRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// interval is a half-open span of host time [start, end).
type interval struct{ start, end time.Duration }

// selfTime is the parent's duration minus the part of it that the union of
// the children's intervals covers. Children may overlap each other and
// extend past the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		if i == 0 || c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}
