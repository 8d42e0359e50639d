package main

import (
	"math"
	"sort"
)

// Statistics for a small shared host. The reference host gives the
// benchmark two virtual processors of a machine it shares. Two things
// happen to a program there that are not the program's doing: the
// hypervisor takes a processor away for milliseconds at a time (steal: 5 %
// of a run in a quiet minute, 25-70 % in a busy one, and worse for two
// busy threads than for one), and for seconds to minutes at a time a
// neighbour on the core's other hyperthread makes the same code 1.4-1.5x
// slower in CPU time as well. A median over a run moved by 30-50 % between
// identical runs. What repeats is what the code costs while it is left
// alone, so:
//
//   - the process runs on one processor (benchProcs) and never sits idle
//     while it is timed, so its CPU time (busyClock) is wall time minus
//     what was stolen; throughput and set-up are measured on that clock;
//   - a latency is the 2nd percentile of the per-request samples (bestOf
//     with a request as the segment): a request of 50-1000 us mostly falls
//     between two thefts;
//   - work that only comes in long pieces is cut into segments of equal
//     work, and the figure is the best-segment statistic (bestOf), or for
//     publish windows, whose own cost varies, betterQuartile.
//
// Every percentile is exact (sorted raw samples, no histogram buckets).

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// the nearest-rank rule; it is 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending without disturbing the caller's
// order (sample order is time order, which segmenting depends on).
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the mean of the two middle samples for even n, the middle
// one otherwise; 0 for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// bestQuantile is how far into the best segments bestOf reaches: the
// figure is exceeded by 2 % of the run's segments.
const bestQuantile = 0.02

// bestOf is the best-segment statistic of per-segment figures: the 98th
// percentile when higher is better, the 2nd when lower is. With fewer
// than 50 segments that is the single best one.
func bestOf(xs []float64, higher bool) float64 {
	if higher {
		return percentile(sortedCopy(xs), 1-bestQuantile)
	}
	return percentile(sortedCopy(xs), bestQuantile)
}

// betterQuartile is the figure a quarter of the segments beat: the 75th
// percentile when higher is better, the 25th when lower is. It is for
// segments whose own cost varies too much for bestOf: it holds still as
// long as a third of the run was undisturbed.
func betterQuartile(xs []float64, higher bool) float64 {
	if higher {
		return percentile(sortedCopy(xs), 0.75)
	}
	return percentile(sortedCopy(xs), 0.25)
}

// iqrPct is the distance between the first and third quartile as a
// percentage of the median.
func iqrPct(xs []float64) float64 {
	s := sortedCopy(xs)
	med := median(s)
	if med == 0 {
		return 0
	}
	return (percentile(s, 0.75) - percentile(s, 0.25)) / med * 100
}

// tailQuantiles are the percentiles a timing may be reported at, in
// thousandths so that the sample arithmetic below is exact.
var tailQuantiles = []struct {
	permille int
	label    string
}{{500, "p50"}, {900, "p90"}, {990, "p99"}, {999, "p999"}}

// highestTail picks the highest percentile with at least ten samples
// beyond it: p90 needs 100 samples, p99 1000, p99.9 10000.
func highestTail(n int) (q float64, label string) {
	best := tailQuantiles[0]
	for _, t := range tailQuantiles[1:] {
		if n*(1000-t.permille)/1000 >= 10 {
			best = t
		}
	}
	return float64(best.permille) / 1000, best.label
}

// interval is a half-open [start, end) span of nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total time covered by the intervals, counting overlaps
// once.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
		} else if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover
// (children are clipped to the parent, overlapping children count once).
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return parent.end - parent.start - unionLen(clipped)
}
