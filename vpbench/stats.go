package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
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

// tailPercentiles are the candidate tail percentiles, lowest first.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailMinBeyond is how many samples must lie beyond a percentile for it to
// be reported as the tail.
const tailMinBeyond = 10

// latencySummary is a latency sample reduced to its median and tail.
type latencySummary struct {
	N      int
	P50    float64
	Tail   float64
	TailPc float64 // the percentile Tail reports; 0 when no percentile has enough samples beyond it
}

// summarize returns the median and the highest tail percentile that has at
// least tailMinBeyond samples beyond it, both by nearest rank.
func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: nearestRank(s, 50)}
	for _, p := range tailPercentiles {
		if float64(len(s))*(1-p/100) < tailMinBeyond {
			break
		}
		out.TailPc = p
		out.Tail = nearestRank(s, p)
	}
	return out
}

// nearestRank returns the p-th percentile of the sorted sample s.
func nearestRank(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
