package expt

import (
	"strings"
	"sync/atomic"
	"testing"
)

// renderDeterministicSuite runs every simulator-backed experiment of All
// (quick mode) in registry order and renders the tables into one string.
// E13 is excluded: it runs on real sockets and the wall clock, so its cells
// legitimately differ run to run (see the WallClock flag).
func renderDeterministicSuite(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range Experiments() {
		if e.WallClock {
			continue
		}
		tb, err := e.Fn(true)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tb.Fprint(&sb)
	}
	return sb.String()
}

// TestAllParallelDeterminism asserts the tentpole guarantee of the parallel
// runner: fanning trials across workers reproduces the sequential tables
// byte-for-byte, across repeated parallel runs. Meant to run under -race
// (see the CI workflow), where it doubles as a data-race check on the
// trial-fanning path.
func TestAllParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite three times")
	}
	defer SetParallelism(0)

	SetParallelism(1)
	sequential := renderDeterministicSuite(t)
	SetParallelism(4)
	parallel1 := renderDeterministicSuite(t)
	parallel2 := renderDeterministicSuite(t)

	if parallel1 != sequential {
		t.Errorf("parallel run 1 differs from sequential output:\n%s", firstDiff(sequential, parallel1))
	}
	if parallel2 != sequential {
		t.Errorf("parallel run 2 differs from sequential output:\n%s", firstDiff(sequential, parallel2))
	}
}

// firstDiff returns the text around the first byte where want (a) and got
// (b) diverge.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hia, hib := i+120, i+120
	if hia > len(a) {
		hia = len(a)
	}
	if hib > len(b) {
		hib = len(b)
	}
	return "want: ..." + a[lo:hia] + "...\ngot:  ..." + b[lo:hib] + "..."
}

func TestRunTrialsOrderAndCoverage(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(8)
	const n = 100
	var calls atomic.Int64
	out := runTrials(n, func(i int) int {
		calls.Add(1)
		return i * i
	})
	if calls.Load() != n {
		t.Fatalf("ran %d trials, want %d", calls.Load(), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d — results not collected by trial index", i, v, i*i)
		}
	}
}

func TestRunTrialsPanicPropagates(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	defer func() {
		if recover() == nil {
			t.Fatal("trial panic did not propagate to the caller")
		}
	}()
	runTrials(16, func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	})
}

func TestSetParallelismClampsAndResets(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(-5) // resets to the GOMAXPROCS default
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d after reset, want >= 1", got)
	}
}
