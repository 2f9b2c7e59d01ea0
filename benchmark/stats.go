package main

import (
	"math"
	"sort"
)

// percentile is the exact nearest-rank percentile of xs (0 < p ≤ 100): the
// smallest sample with at least p% of the samples at or below it. xs is
// sorted in place. An empty sample gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return sortedPercentile(xs, p)
}

func sortedPercentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the midpoint median (mean of the two middle samples for an even
// count), used for segment rates and repeated probes.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cv is the coefficient of variation (sample standard deviation / mean).
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / math.Abs(m)
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// alternate is the pattern of traced segments in a traced run, U T T U: a
// slow drift over the run falls on both kinds alike, and every even/odd
// pair of neighbours holds one of each.
func alternate(trace bool) func(seg int) bool {
	return func(seg int) bool { return trace && (seg%4 == 1 || seg%4 == 2) }
}

// untracedOnly keeps the rates of the untraced segments.
func untracedOnly(rates []float64, traced func(seg int) bool) []float64 {
	var out []float64
	for seg, r := range rates {
		if !traced(seg) {
			out = append(out, r)
		}
	}
	return out
}

// tracingCostPct is the share of throughput tracing cost: the median, over
// neighbouring pairs of one untraced and one traced segment, of how much
// slower the traced one ran. Neighbours cover nearly the same stretch of a
// non-stationary run, which two medians over all segments would not.
func tracingCostPct(rates []float64, traced func(seg int) bool) float64 {
	var lost []float64
	for seg := 0; seg+1 < len(rates); seg += 2 {
		u, t := rates[seg], rates[seg+1]
		if traced(seg) {
			u, t = t, u
		}
		if u > 0 {
			lost = append(lost, 100*(u-t)/u)
		}
	}
	return median(lost)
}
