package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {99, 49.6},
	} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	if got := median([]float64{3, 1, 2, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {20, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The reference values are what Python's statistics.quantiles(v, n=4) prints
// for the same lists — the arithmetic the driver applies to ten runs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
		{[]float64{1, 100}, -23.75, 50.5, 124.75}, // the exclusive method extrapolates
		{[]float64{3, 3, 3}, 3, 3, 3},
	} {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWorseBy(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		higher bool
		want   float64
	}{
		{100, 110, false, 0.10}, // a latency that grew 10%
		{100, 90, false, -0.10}, // one that shrank
		{100, 90, true, 0.10},   // a throughput that fell 10%
		{100, 120, true, -0.20}, // one that rose
		{0, 0, false, 0},
	} {
		if got := worseBy(c.a, c.b, c.higher); !near(got, c.want) {
			t.Errorf("worseBy(%v, %v, higher=%v) = %v, want %v", c.a, c.b, c.higher, got, c.want)
		}
	}
	if !math.IsInf(worseBy(0, 1, false), 1) {
		t.Error("any value is infinitely worse than a zero base")
	}
}

func TestFastQuartilesAndMean(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := fastLow(v); !near(got, 2) {
		t.Errorf("fastLow = %v, want 2", got)
	}
	if got := fastHigh(v); !near(got, 4) {
		t.Errorf("fastHigh = %v, want 4", got)
	}
	if got := mean(v); !near(got, 3) {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestStratifiedCoversThePeriod(t *testing.T) {
	const k = 8
	period := fdPeriod
	seen := map[int]bool{}
	for i := 0; i < k; i++ {
		off := stratified(0.37, i, k, period)
		if off < 0 || off >= period {
			t.Fatalf("offset %v outside the period", off)
		}
		seen[int(off*k/period)] = true
	}
	if len(seen) != k {
		t.Errorf("offsets fell into %d of %d strata", len(seen), k)
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(ops, p50 float64) *suite {
		r := newReport("sim_log", 1, false)
		for _, d := range endToEnd {
			r.Metrics[d.Name] = 1
		}
		r.Metrics[mOps], r.Metrics[mP50] = ops, p50
		return &suite{Reports: []*report{r}}
	}
	if !compareSets(mk(100, 5), mk(95, 5)) {
		t.Error("a 5% throughput gap is inside the bound and must pass")
	}
	if compareSets(mk(100, 5), mk(60, 5)) {
		t.Error("a 40% throughput gap must fail")
	}
	if compareSets(mk(100, 5), mk(100, 5.0001)) {
		t.Error("sim_log's op_p50_ms is exact: any difference must fail")
	}
}
