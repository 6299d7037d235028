package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. Interpolation rather than
// nearest-rank keeps a reported latency from snapping to the same sample on
// every run.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

func median(vs []float64) float64 { return percentile(sortedCopy(vs), 50) }

// The box this benchmark is sized for loses up to a third of its CPU speed for
// seconds at a time (a register-only spin loop shows it), always downward
// from its uncontended speed. A run is therefore cut into slices, each slice
// measured on its own, and the run reports the quartile of the slices on the
// fast side — the uncontended reading, as long as a quarter of the run was
// uncontended. A real change moves every slice, so it moves the quartile by
// as much.

// fastLow is the lower quartile of per-slice readings where lower is better.
func fastLow(vs []float64) float64 { return percentile(sortedCopy(vs), 25) }

// fastHigh is the upper quartile of per-slice readings where higher is better.
func fastHigh(vs []float64) float64 { return percentile(sortedCopy(vs), 75) }

// mean is for samples whose distribution is bimodal, where a median flips
// between the modes from run to run.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// tailPercentiles are the candidates for the tail a sample can support.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}

// supportedTail returns the highest candidate percentile that still has at
// least ten of n samples beyond it — the rule the timing report follows — or
// 0 when even the median has fewer.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		// The tolerance keeps 100 × (1 − 0.9) from reading as 9.999….
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns the three cut points of vs exactly as Python's
// statistics.quantiles(vs, n=4) (the default "exclusive" method) does, so the
// spread this program prints is the spread the driver computes.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of vs as a share of its median.
func spread(vs []float64) float64 {
	q1, _, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}

// worseBy reports by which share of a the value b is worse than a, given the
// metric's direction; negative when b is better.
func worseBy(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if higherIsBetter {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// msOf converts nanoseconds to milliseconds.
func msOf(ns float64) float64 { return ns / 1e6 }

// nsToSortedMs converts a sample of nanosecond durations to sorted
// milliseconds.
func nsToSortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = msOf(float64(v))
	}
	sort.Float64s(out)
	return out
}
