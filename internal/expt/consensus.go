package expt

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/consensus/conslab"
	"repro/internal/consensus/ctc"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// algoLabels are the table labels of conslab.Algorithms(), in order. The
// experiments run the algorithms over scripted detectors: for cec and ctc
// the cluster carries trusted + suspected; for mrc only trusted is used.
var algoLabels = []string{"◇C (this paper)", "CT ◇S (rotating)", "MR Ω (leader)"}

// roundMessages counts protocol messages of the given kinds whose envelope
// belongs to round r.
func roundMessages(col *trace.Collector, r int, kinds []string) int {
	want := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	n := 0
	for _, e := range col.Events() {
		if !want[e.Kind] {
			continue
		}
		if env, ok := e.Payload.(consensus.Msg); ok && env.Round == r {
			n++
		}
	}
	return n
}

// E5RoundCosts reproduces Section 5.4's per-round cost comparison: phases
// per round and messages per round in the failure-free, stable-detector
// case.
func E5RoundCosts(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Communication steps and messages per round (failure-free, stable detector)",
		Claim:   "Section 5.4: ◇C: 5 phases, ~4n msgs; CT: 4 phases, ~3n msgs; MR: 3 phases, Θ(n²) (paper: 3n²) msgs",
		Columns: []string{"n", "algorithm", "phases", "round-1 msgs", "paper formula", "decision latency", "round"},
	}
	ns := []int{3, 5, 9, 17, 33}
	if quick {
		ns = []int{3, 5, 9}
	}
	algos := conslab.Algorithms()
	results := runTrials(len(ns)*len(algos), func(i int) conslab.Result {
		n, a := ns[i/len(algos)], algos[i%len(algos)]
		c := fdtest.NewCluster(n, 1)
		return conslab.Run(conslab.Setup{
			N:    n,
			Seed: 500,
			Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Run:  a.Scripted(c),
		})
	})
	var err error
	for ni, n := range ns {
		for ai, a := range algos {
			res, name := results[ni*len(algos)+ai], algoLabels[ai]
			if verr := res.Verify(n); verr != nil && err == nil {
				err = fmt.Errorf("E5 %s n=%d: %w", name, n, verr)
			}
			msgs := roundMessages(res.Messages, 1, a.Kinds)
			var formula string
			var lo, hi int
			switch a.Phases {
			case 5:
				formula = fmt.Sprintf("4n = %d", 4*n)
				lo, hi = 4*n-2, 4*n
			case 4:
				formula = fmt.Sprintf("3n = %d", 3*n)
				lo, hi = 3*n, 3*n
			case 3:
				formula = fmt.Sprintf("3n² = %d", 3*n*n)
				lo, hi = 3*n*n, 3*n*n
			}
			t.AddRow(n, name, a.Phases, msgs, formula, msd(res.Log.LastDecisionAt()), res.Log.MaxRound())
			if err == nil {
				err = firstErr(
					checkf(res.Log.MaxRound() == 1, "E5", "%s n=%d decided in round %d", name, n, res.Log.MaxRound()),
					checkf(msgs >= lo && msgs <= hi, "E5", "%s n=%d: %d round-1 msgs, want %d..%d", name, n, msgs, lo, hi),
				)
			}
		}
	}
	t.Notes = append(t.Notes,
		"round-1 msgs excludes the Reliable Broadcast of the decision, as in the paper",
		"◇C measured 4n−1: coord n−1, estimates n, propositions n, acks n")
	return t, err
}

// E6RoundsAfterStability reproduces Theorem 3 and the early-decision claim:
// once the detector stabilizes, ◇C and MR decide within about one round,
// while the rotating coordinator may need up to n further rounds depending
// on where the never-suspected process's turn falls.
func E6RoundsAfterStability(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Rounds needed after detector stabilization (worst/avg/best over the choice of stable leader)",
		Claim:   "Theorem 3: rotating-coordinator ◇S consensus has runs needing n rounds after stabilization; ◇C and MR decide in one round",
		Columns: []string{"n", "algorithm", "min", "avg", "max", "paper"},
	}
	ns := []int{5, 9}
	if quick {
		ns = []int{5}
	}
	stabAt := 150 * time.Millisecond
	algos := conslab.Algorithms()
	type e6Trial struct {
		n  int
		li int
		mi int
	}
	var sweep []e6Trial
	for _, n := range ns {
		for li := 1; li <= n; li++ {
			for mi := range algos {
				sweep = append(sweep, e6Trial{n: n, li: li, mi: mi})
			}
		}
	}
	type e6Result struct {
		after int
		verr  error
	}
	results := runTrials(len(sweep), func(i int) e6Result {
		tr := sweep[i]
		n, mi := tr.n, tr.mi
		leader := dsys.ProcessID(tr.li)
		a := algos[mi]
		c := fdtest.NewCluster(n, 0)
		// Pre-stabilization chaos that keeps rounds advancing
		// without allowing a decision:
		//   cec/mrc: every process trusts itself — every ◇C
		//   coordinator gathers exactly one real estimate (< maj)
		//   and sends null propositions; no MR candidate is ever
		//   unanimously named. Rounds cycle, nothing decides.
		//   ctc: everybody suspects everybody — every proposition
		//   is nacked.
		switch mi {
		case 0, 2:
			for _, id := range dsys.Pids(n) {
				c.At(id).SetTrusted(id)
			}
		case 1:
			for _, id := range dsys.Pids(n) {
				c.At(id).Suspect(dsys.Pids(n)...)
			}
		}
		probe := &consensus.RoundProbe{}
		var roundAtStab int
		res := conslab.Run(conslab.Setup{
			N:    n,
			Seed: int64(600 + tr.li),
			Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Run:  a.Scripted(c),
			Opt:  consensus.Options{RoundProbe: probe},
			Before: func(k *sim.Kernel) {
				k.ScheduleFunc(stabAt, func(time.Duration) {
					roundAtStab = probe.Max()
					for _, id := range dsys.Pids(n) {
						c.At(id).SetTrusted(leader)
						// CT: keep everyone but the stable leader
						// suspected — the detector is stable (◇S
						// only promises one never-suspected correct
						// process).
						if mi == 1 {
							others := []dsys.ProcessID{}
							for _, q := range dsys.Pids(n) {
								if q != leader {
									others = append(others, q)
								}
							}
							c.At(id).SetSuspected(others...)
						} else {
							c.At(id).SetSuspected()
						}
					}
				})
			},
		})
		if verr := res.Verify(n); verr != nil {
			return e6Result{verr: fmt.Errorf("E6 %s n=%d leader=%v: %w", algoLabels[mi], n, leader, verr)}
		}
		after := res.Log.MaxRound() - roundAtStab
		if after < 0 {
			after = 0
		}
		return e6Result{after: after}
	})
	var err error
	idx := 0
	for _, n := range ns {
		// One measure per algorithm, in algoLabels order.
		type measure struct {
			paper           string
			rounds          []int
			wantMax, wantLo int
		}
		measures := []*measure{
			{paper: "1", wantMax: 2},
			{paper: fmt.Sprintf("up to %d", n), wantMax: n + 1, wantLo: n - 1},
			{paper: "1", wantMax: 2},
		}
		for li := 1; li <= n; li++ {
			for mi := range algos {
				r := results[idx]
				idx++
				if r.verr != nil {
					if err == nil {
						err = r.verr
					}
					continue
				}
				measures[mi].rounds = append(measures[mi].rounds, r.after)
			}
		}
		for mi, m := range measures {
			name := algoLabels[mi]
			mn, mx, sum := m.rounds[0], m.rounds[0], 0
			for _, r := range m.rounds {
				if r < mn {
					mn = r
				}
				if r > mx {
					mx = r
				}
				sum += r
			}
			avg := float64(sum) / float64(len(m.rounds))
			t.AddRow(n, name, mn, fmt.Sprintf("%.1f", avg), mx, m.paper)
			if err == nil {
				err = firstErr(
					checkf(mx <= m.wantMax, "E6", "%s n=%d: worst case %d rounds after stability, want ≤ %d", name, n, mx, m.wantMax),
					checkf(mx >= m.wantLo, "E6", "%s n=%d: worst case %d rounds after stability, want ≥ %d", name, n, mx, m.wantLo),
				)
			}
		}
	}
	t.Notes = append(t.Notes, "each (algorithm, n) is run once per possible stable leader p1..pn; 'rounds after' = deciding round − highest round entered when the detector became stable")
	return t, err
}

// E7NackTolerance reproduces the majority-positive-replies feature (Sections
// 1.3 and 5.4): k processes behave negatively towards the coordinator — for
// ◇C/CT they falsely suspect it (slow links delay the proposition so the
// suspicion acts first), for MR they name a different leader. The ◇C
// algorithm decides in round 1 as long as a majority of acks exists.
func E7NackTolerance(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Deciding round with k negative processes (n=5; '-' = no decision in horizon)",
		Claim:   "Section 5.4: ◇C decides on a majority of acks even alongside nacks; one nack in CT's first majority blocks its round; one ⊥ in MR's first n−f blocks its round",
		Columns: []string{"k", "◇C round", "CT round", "MR round"},
	}
	n := 5
	ks := []int{0, 1, 2, 3}
	if quick {
		ks = []int{0, 1, 2}
	}
	horizon := 2 * time.Second
	algos := conslab.Algorithms()
	type e7Result struct {
		decidedCount int
		round        int
	}
	results := runTrials(len(ks)*len(algos), func(i int) e7Result {
		k, mi := ks[i/len(algos)], i%len(algos)
		a := algos[mi]
		c := fdtest.NewCluster(n, 1)
		negatives := map[dsys.ProcessID]bool{}
		for j := 0; j < k; j++ {
			id := dsys.ProcessID(n - j) // highest ids are the negatives
			negatives[id] = true
			if mi == 2 {
				c.At(id).SetTrusted(2) // MR: dissenting leader view
			} else {
				c.At(id).Suspect(1) // ◇C/CT: permanent false suspicion
			}
		}
		// Delay only the coordinator's PROPOSITIONS to the negative
		// processes, so their (false) suspicion acts before the
		// proposition arrives and they nack; everything else is fast.
		net := network.Func(func(from, to dsys.ProcessID, kind string, _ time.Duration, _ *rand.Rand) (time.Duration, bool) {
			if from == 1 && negatives[to] && (kind == cec.KindProp || kind == ctc.KindProp) {
				return 40 * time.Millisecond, false
			}
			return time.Millisecond, false
		})
		res := conslab.Run(conslab.Setup{
			N:      n,
			Seed:   int64(700 + k),
			Net:    net,
			Run:    a.Scripted(c),
			RunFor: horizon,
		})
		return e7Result{decidedCount: res.Log.DecidedCount(), round: res.Log.MaxRound()}
	})
	var err error
	for ki, k := range ks {
		cells := []any{k}
		for mi := range algos {
			r := results[ki*len(algos)+mi]
			cell := "-"
			if r.decidedCount == n {
				cell = fmt.Sprint(r.round)
			}
			cells = append(cells, cell)
			if err == nil {
				switch {
				case mi == 0 && k <= (n-1)/2:
					err = checkf(r.decidedCount == n && r.round == 1,
						"E7", "◇C with k=%d: round %d decided=%d, want round 1", k, r.round, r.decidedCount)
				case mi == 1 && k >= 1 && r.decidedCount == n:
					err = checkf(r.round >= 2,
						"E7", "CT with k=%d decided in round %d; a nack in the first majority should kill round 1", k, r.round)
				}
			}
		}
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes,
		"negatives for ◇C/CT: processes that permanently (falsely) suspect p1, with 40ms links from p1 so their nack precedes the proposition",
		"negatives for MR: processes that permanently trust p2 instead of p1")
	return t, err
}

// E8MergedPhaseTradeoff reproduces the steps-vs-messages trade-off of
// Section 5.4: merging Phases 0 and 1 saves one communication step but costs
// Ω(n²) messages.
func E8MergedPhaseTradeoff(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "◇C consensus: announced Phase 0 vs merged Phases 0+1",
		Claim:   "Section 5.4: merging Phases 0 and 1 yields 4 phases but Ω(n²) messages instead of Θ(n)",
		Columns: []string{"n", "variant", "phases", "round-1 msgs", "decision latency"},
	}
	ns := []int{4, 8, 16}
	if quick {
		ns = []int{4, 8}
	}
	cecAlgo := conslab.MustAlgorithm("cec")
	results := runTrials(len(ns)*2, func(i int) conslab.Result {
		n, merged := ns[i/2], i%2 == 1
		c := fdtest.NewCluster(n, 1)
		return conslab.Run(conslab.Setup{
			N:    n,
			Seed: 800,
			Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Run:  cecAlgo.Scripted(c),
			Opt:  consensus.Options{MergedPhase01: merged},
		})
	})
	var err error
	for ni, n := range ns {
		var counts [2]int
		for vi, merged := range []bool{false, true} {
			res := results[ni*2+vi]
			if verr := res.Verify(n); verr != nil && err == nil {
				err = fmt.Errorf("E8 merged=%v n=%d: %w", merged, n, verr)
			}
			msgs := roundMessages(res.Messages, 1, cecAlgo.Kinds)
			counts[vi] = msgs
			name, phases := "announced (Fig. 3)", 5
			if merged {
				name, phases = "merged 0+1", 4
			}
			t.AddRow(n, name, phases, msgs, msd(res.Log.LastDecisionAt()))
		}
		if err == nil {
			err = firstErr(
				checkf(counts[1] >= n*n, "E8", "merged n=%d: %d msgs, want ≥ n²=%d", n, counts[1], n*n),
				checkf(counts[0] <= 4*n, "E8", "announced n=%d: %d msgs, want ≤ 4n=%d", n, counts[0], 4*n),
			)
		}
	}
	return t, err
}

// E9AllSelfTrust reproduces the bad case noted in Section 5.4: when every
// process considers itself leader, Phase 0 alone costs Ω(n²) messages.
func E9AllSelfTrust(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Phase 0 cost when all processes consider themselves leader",
		Claim:   "Section 5.4: Phase 0 could require Ω(n²) messages in the bad case in which all the processes consider themselves the leader",
		Columns: []string{"n", "coord msgs (all self-trust)", "n(n−1)", "coord msgs (stable)", "n−1"},
	}
	ns := []int{4, 8, 16, 32}
	if quick {
		ns = []int{4, 8, 16}
	}
	type e9Result struct {
		msgs int
		verr error
	}
	results := runTrials(len(ns)*2, func(i int) e9Result {
		n, selfTrust := ns[i/2], i%2 == 0 // trial order: (bad, good) per n, as before
		c := fdtest.NewCluster(n, 1)
		if selfTrust {
			for _, id := range dsys.Pids(n) {
				c.At(id).SetTrusted(id)
			}
		}
		res := conslab.Run(conslab.Setup{
			N:    n,
			Seed: 900,
			Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Run:  conslab.MustAlgorithm("cec").Scripted(c),
			Before: func(k *sim.Kernel) {
				if selfTrust {
					// Heal after round 1's Phase 0 has fired everywhere.
					k.ScheduleFunc(50*time.Millisecond, func(time.Duration) {
						c.SetTrustedEverywhere(1)
					})
				}
			},
		})
		var verr error
		if v := res.Verify(n); v != nil {
			verr = fmt.Errorf("E9 selfTrust=%v n=%d: %w", selfTrust, n, v)
		}
		return e9Result{msgs: roundMessages(res.Messages, 1, []string{cec.KindCoord}), verr: verr}
	})
	var err error
	for ni, n := range ns {
		badRes, goodRes := results[ni*2], results[ni*2+1]
		if err == nil {
			err = firstErr(badRes.verr, goodRes.verr)
		}
		bad, good := badRes.msgs, goodRes.msgs
		t.AddRow(n, bad, n*(n-1), good, n-1)
		if err == nil {
			err = firstErr(
				checkf(bad == n*(n-1), "E9", "all-self-trust n=%d: %d coord msgs, want %d", n, bad, n*(n-1)),
				checkf(good == n-1, "E9", "stable n=%d: %d coord msgs, want %d", n, good, n-1),
			)
		}
	}
	return t, err
}
