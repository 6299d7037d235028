package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd"
)

// logOf builds an applied log from (slot, origin, seq) triples with the
// generated payloads.
func logOf(seed int64, entries ...[3]int) []core.AppliedEntry {
	var out []core.AppliedEntry
	for _, e := range entries {
		origin, seq := dsys.ProcessID(e[1]), int64(e[2])
		out = append(out, core.AppliedEntry{Slot: e[0], Cmd: core.Command{Origin: origin, Seq: seq, Payload: payloadFor(seed, origin, seq-1)}})
	}
	return out
}

func TestCheckLogs(t *testing.T) {
	const seed = 5
	full := [][3]int{{1, 1, 1}, {1, 1, 2}, {2, 3, 1}, {3, 1, 3}, {3, 3, 2}}
	cases := []struct {
		name    string
		logs    map[dsys.ProcessID][]core.AppliedEntry
		acked   map[dsys.ProcessID]int64
		missing int64
		invalid bool
		problem string
	}{
		{name: "equal logs, everything acknowledged is there",
			logs:  map[dsys.ProcessID][]core.AppliedEntry{1: logOf(seed, full...), 2: logOf(seed, full...), 3: logOf(seed, full...)},
			acked: map[dsys.ProcessID]int64{1: 3, 3: 2}},
		{name: "a shorter log is a prefix: fine unless it lacks an acknowledged command",
			logs:    map[dsys.ProcessID][]core.AppliedEntry{1: logOf(seed, full...), 2: logOf(seed, full[:3]...)},
			acked:   map[dsys.ProcessID]int64{1: 3, 3: 1},
			missing: 1, problem: "holds 2 of the 3 acknowledged"},
		{name: "diverging logs",
			logs:    map[dsys.ProcessID][]core.AppliedEntry{1: logOf(seed, full...), 2: logOf(seed, [3]int{1, 1, 1}, [3]int{1, 3, 1})},
			acked:   map[dsys.ProcessID]int64{},
			invalid: true, problem: "diverge at entry 1"},
		{name: "a gap in an origin's Seq breaks FIFO",
			logs:    map[dsys.ProcessID][]core.AppliedEntry{1: logOf(seed, [3]int{1, 1, 1}, [3]int{2, 1, 3})},
			acked:   map[dsys.ProcessID]int64{},
			invalid: true, problem: "per-origin FIFO broken"},
		{name: "a slot going backwards",
			logs:    map[dsys.ProcessID][]core.AppliedEntry{1: logOf(seed, [3]int{2, 1, 1}, [3]int{1, 1, 2})},
			acked:   map[dsys.ProcessID]int64{},
			invalid: true, problem: "slot goes backwards"},
		{name: "a payload that is not the generated one",
			logs:    map[dsys.ProcessID][]core.AppliedEntry{1: logOf(seed+1, [3]int{1, 1, 1})},
			acked:   map[dsys.ProcessID]int64{},
			invalid: true, problem: "not the generated one"},
	}
	for _, c := range cases {
		r := newReport("t", seed, false)
		missing := checkLogs(r, c.logs, c.acked, seed)
		if missing != c.missing || r.Invalid != c.invalid {
			t.Errorf("%s: missing %d invalid %v, want %d %v (%v)", c.name, missing, r.Invalid, c.missing, c.invalid, r.Problems)
		}
		if c.problem == "" && len(r.Problems) > 0 {
			t.Errorf("%s: unexpected problems %v", c.name, r.Problems)
		}
		if c.problem != "" && !strings.Contains(strings.Join(r.Problems, "\n"), c.problem) {
			t.Errorf("%s: problems %v do not mention %q", c.name, r.Problems, c.problem)
		}
	}
}

type fixedSuspector fd.Set

func (s fixedSuspector) Suspected() fd.Set { return fd.Set(s).Clone() }

func TestCheckDetectors(t *testing.T) {
	r := newReport("t", 1, false)
	checkDetectors(r, map[dsys.ProcessID]fd.Suspector{
		2: fixedSuspector(fd.NewSet(1)), 3: fixedSuspector(fd.NewSet(1)),
	}, 1)
	if len(r.Problems) != 0 {
		t.Errorf("crashed p1 suspected by all, nobody else suspected: %v", r.Problems)
	}
	checkDetectors(r, map[dsys.ProcessID]fd.Suspector{
		2: fixedSuspector(fd.NewSet(1, 3)), 3: fixedSuspector(fd.NewSet()),
	}, 1)
	got := strings.Join(r.Problems, "\n")
	if !strings.Contains(got, "p2 still suspects the correct process p3") || !strings.Contains(got, "p3 does not suspect the crashed p1") {
		t.Errorf("problems = %q", got)
	}
}

// TestPollUntil pins the clock of the live waits: polls are counted, and the
// count starts over whenever the reported progress changes.
func TestPollUntil(t *testing.T) {
	const budget = 5 // polls in 5 ms
	polls := func(cond func(n int) (bool, int64)) int {
		n := 0
		pollUntil(budget*time.Millisecond, func() (bool, int64) { n++; return cond(n) })
		return n
	}
	if n := polls(func(n int) (bool, int64) { return n == 3, 0 }); n != 3 {
		t.Errorf("done at the 3rd poll: polled %d times", n)
	}
	if n := polls(func(int) (bool, int64) { return false, 7 }); n != budget {
		t.Errorf("never done, no progress: polled %d times, want %d", n, budget)
	}
	// Progress on each of the first 10 polls, then none: the budget runs from
	// the last change.
	if n := polls(func(n int) (bool, int64) { return false, int64(min(n, 10)) }); n != 10+budget-1 {
		t.Errorf("progress for 10 polls: polled %d times, want %d", n, 10+budget-1)
	}
}
