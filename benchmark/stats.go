package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks. xs must be sorted ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) computes
// them — the spread rule the benchmark contract is checked with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return median(xs), median(xs)
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// segmentCV splits calls into k equal-count segments by completion
// order and returns the coefficient of variation of the segments'
// throughput — a stall that a median hides shows up as one slow
// segment. ends are completion times in ns from the phase start.
func segmentCV(ends []int64, k int) float64 {
	rates := segmentRates(ends, k)
	if len(rates) == 0 {
		return 0
	}
	var sum, sq float64
	for _, r := range rates {
		sum += r
	}
	mean := sum / float64(len(rates))
	for _, r := range rates {
		sq += (r - mean) * (r - mean)
	}
	return math.Sqrt(sq/float64(len(rates))) / mean
}

// segmentRates returns the throughput (calls per ns) of each of k
// equal-count segments of the calls, in completion order; nil when
// there are fewer than two calls per segment.
func segmentRates(ends []int64, k int) []float64 {
	n := len(ends)
	if n < 2*k {
		return nil
	}
	s := append([]int64(nil), ends...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rates := make([]float64, 0, k)
	prev := int64(0)
	for i := 1; i <= k; i++ {
		last := i*n/k - 1
		first := (i - 1) * n / k
		dur := s[last] - prev
		prev = s[last]
		if dur <= 0 {
			continue
		}
		rates = append(rates, float64(last-first+1)/float64(dur))
	}
	return rates
}
