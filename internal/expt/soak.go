package expt

import (
	"fmt"
	"time"

	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
	"repro/internal/sim"
)

// E10ConsensusSoak validates Theorem 2 (and the baselines' correctness)
// statistically: randomized crashes, pre-GST chaos and real detectors across
// many seeds, with all four Uniform Consensus properties checked every run.
func E10ConsensusSoak(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Uniform Consensus soak under randomized crashes and asynchrony",
		Claim:   "Theorem 2: the ◇C algorithm solves Uniform Consensus with f < n/2 (baselines likewise per their papers)",
		Columns: []string{"algorithm", "trials", "violations", "avg rounds", "max rounds", "avg decision"},
	}
	trials := 30
	if quick {
		trials = 10
	}
	// Each algorithm runs over the detector it is paired with, in
	// conslab.Algorithms() order.
	names := []string{"◇C over ring ◇C", "CT over heartbeat ◇P", "MR over LeaderBeat Ω"}
	algos := conslab.Algorithms()
	// One trial per (algorithm, seed), each with its own kernel; fanned
	// across the worker pool and reduced in deterministic (algorithm, seed)
	// order.
	type soakTrial struct {
		verr   error
		rounds int
		dec    time.Duration
	}
	results := runTrials(len(algos)*trials, func(i int) soakTrial {
		a, name := algos[i/trials], names[i/trials]
		seed := int64(i % trials)
		n := 5 + 2*int(seed%2) // alternate n=5, n=7
		crashes := map[dsys.ProcessID]time.Duration{}
		f := int(seed) % (dsys.MaxFaulty(n) + 1)
		for j := 0; j < f; j++ {
			id := dsys.ProcessID((int(seed)*5+j*3)%n + 1)
			crashes[id] = time.Duration(5+int(seed%7)*11+25*j) * time.Millisecond
		}
		res := conslab.Run(conslab.Setup{
			N:    n,
			Seed: seed,
			Net: network.PartiallySynchronous{
				GST:    60 * time.Millisecond,
				Delta:  10 * time.Millisecond,
				PreGST: network.Uniform{Min: 0, Max: 70 * time.Millisecond},
			},
			Crashes: crashes,
			Run:     a.Paired,
		})
		if verr := res.Verify(n); verr != nil {
			return soakTrial{verr: fmt.Errorf("E10 %s seed %d: %w", name, seed, verr)}
		}
		return soakTrial{rounds: res.Log.MaxRound(), dec: res.Log.LastDecisionAt()}
	})
	var err error
	for ri, name := range names {
		violations, sumRounds, maxRounds := 0, 0, 0
		var sumDec time.Duration
		for seed := 0; seed < trials; seed++ {
			tr := results[ri*trials+seed]
			if tr.verr != nil {
				violations++
				if err == nil {
					err = tr.verr
				}
				continue
			}
			sumRounds += tr.rounds
			if tr.rounds > maxRounds {
				maxRounds = tr.rounds
			}
			sumDec += tr.dec
		}
		okTrials := trials - violations
		avgR, avgD := "-", "-"
		if okTrials > 0 {
			avgR = fmt.Sprintf("%.1f", float64(sumRounds)/float64(okTrials))
			avgD = msd(sumDec / time.Duration(okTrials))
		}
		t.AddRow(name, trials, violations, avgR, maxRounds, avgD)
		if err == nil {
			err = checkf(violations == 0, "E10", "%s: %d violations", name, violations)
		}
	}
	return t, err
}

// E11StabilityWindow reproduces the Section 2.2 remark: the detector need
// not stabilize permanently — a unique leader held "for long enough" lets
// the algorithm terminate. Detector views disagree perpetually except for a
// single aligned window of the given length.
func E11StabilityWindow(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "◇C consensus under a single bounded window of detector agreement (n=5)",
		Claim:   "Section 2.2: many algorithms can successfully complete if the failure detector provides a unique leader for long enough periods of time",
		Columns: []string{"window", "decided", "decision time", "rounds"},
	}
	windows := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	}
	if quick {
		windows = []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond}
	}
	n := 5
	windowStart := 300 * time.Millisecond
	type windowTrial struct {
		all    bool
		lastAt time.Duration
		rounds int
	}
	results := runTrials(len(windows), func(i int) windowTrial {
		w := windows[i]
		c := fdtest.NewCluster(n, 0)
		unstable := func() {
			// Outside the window: nobody trusts itself (no coordinator can
			// announce a fresh round) and everyone falsely suspects p1 (a
			// round in progress under p1 collapses into nacks).
			for _, id := range dsys.Pids(n) {
				c.At(id).SetTrusted(dsys.ProcessID(int(id)%n) + 1) // successor
				c.At(id).SetSuspected(1)
			}
		}
		stable := func() {
			for _, id := range dsys.Pids(n) {
				c.At(id).SetTrusted(1)
				c.At(id).SetSuspected()
			}
		}
		unstable()
		res := conslab.Run(conslab.Setup{
			N:      n,
			Seed:   1100,
			Net:    network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Run:    conslab.MustAlgorithm("cec").Scripted(c),
			RunFor: 2 * time.Second,
			Before: func(k *sim.Kernel) {
				k.ScheduleFunc(windowStart, func(time.Duration) { stable() })
				k.ScheduleFunc(windowStart+w, func(time.Duration) { unstable() })
			},
		})
		return windowTrial{
			all:    res.Log.DecidedCount() == n,
			lastAt: res.Log.LastDecisionAt(),
			rounds: res.Log.MaxRound(),
		}
	})
	var decided []bool
	var err error
	for i, r := range results {
		decided = append(decided, r.all)
		cell, rounds := "-", "-"
		if r.all {
			cell = msd(r.lastAt)
			rounds = fmt.Sprint(r.rounds)
		}
		t.AddRow(msd(windows[i]), mark(r.all), cell, rounds)
	}
	// Shape: long windows succeed; the longest must succeed, and success
	// must be monotone-ish (once a window length works, longer ones do too).
	if err == nil {
		err = checkf(decided[len(decided)-1], "E11", "even the longest window did not produce a decision")
	}
	if err == nil {
		seen := false
		for i, d := range decided {
			if d {
				seen = true
			} else if seen {
				err = checkf(false, "E11", "window %v failed although a shorter one succeeded", windows[i])
				break
			}
		}
	}
	t.Notes = append(t.Notes, "outside the window nobody trusts itself (no new coordinator) and everyone falsely suspects p1 (in-flight rounds collapse into nacks); the window must cover roughly one full round for the decision to land")
	return t, err
}
