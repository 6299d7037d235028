package expt

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/network"
)

// vcell renders a verdict cell as "yes@t" or "no".
func vcell(v check.Verdict) string {
	if !v.Holds {
		return "no"
	}
	return "yes@" + msd(v.From)
}

// E1ClassProperties reproduces Fig. 1 and the class relationships of Section
// 3: every construction is run through the same crash scenario and its trace
// is checked against all completeness/accuracy properties, the Ω property
// and the ◇C consistency clause.
func E1ClassProperties(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Failure detector classes: properties satisfied by each construction",
		Claim:   "Fig. 1 / Section 3: ◇P ⇒ ◇C ⇒ ◇S; Ω ⇒ ◇C (poor accuracy); ring ◇S gives ◇C at no extra cost; Fig. 2 transformation gives ◇P",
		Columns: []string{"detector", "strongC", "weakC", "evStrongAcc", "evWeakAcc", "omega", "ecConsist", "class verdict"},
	}
	runFor := 5 * time.Second
	if quick {
		runFor = 3 * time.Second
	}
	// Each row names the class properties its construction must have and,
	// where the paper separates it from a stronger class, one it must lack.
	type prop func(check.FDTrace) check.Verdict
	isP, isC, isOmega := check.FDTrace.EventuallyPerfect, check.FDTrace.EventuallyConsistent, check.FDTrace.OmegaProperty
	rows := []struct {
		name, stack, class string
		has                []prop
		lacks              prop
	}{
		{"heartbeat (◇P)", "heartbeat", "◇P", []prop{isP}, nil},
		{"ring (◇C native)", "ring", "◇C", []prop{isC}, nil},
		// ◇Q's defining gap: crashed processes are suspected by some, not
		// all, correct processes.
		{"neighbor (◇Q)", "neighbor", "◇Q, not ◇P",
			[]prop{check.FDTrace.WeakCompleteness, check.FDTrace.EventualStrongAccuracy}, check.FDTrace.StrongCompleteness},
		{"amplified neighbor (◇Q→◇P)", "amplified-neighbor", "◇P", []prop{isP}, nil},
		{"leaderbeat (Ω)", "leaderbeat", "Ω", []prop{isOmega}, nil},
		{"gossip Ω over heartbeat", "gossip", "Ω", []prop{isOmega}, nil},
		{"◇C from ◇P (first non-suspected)", "from-perfect", "◇C", []prop{isC}, nil},
		// The paper's accuracy observation: ◇C from Ω cannot be ◇P — it
		// suspects all correct processes but one.
		{"◇C from Ω (suspect all but leader)", "from-leader", "◇C, not ◇P", []prop{isC}, check.FDTrace.EventualStrongAccuracy},
		{"◇C from ◇Q/◇W (amplify + gossip Ω + compose)", "weak-route", "◇C", []prop{isC}, nil},
		{"transform over ring (Fig. 2 → ◇P)", "transform", "◇P", []prop{isP}, nil},
		{"piggybacked transform over Ω", "piggyback", "◇P", []prop{isP}, nil},
	}
	type classTrial struct {
		cells []any
		rerr  error
	}
	results := runTrials(len(rows), func(i int) classTrial {
		r := rows[i]
		res := fdlab.Run(fdlab.Setup{
			N:    6,
			Seed: int64(100 + i),
			Net:  network.PartiallySynchronous{GST: 200 * time.Millisecond, Delta: 10 * time.Millisecond},
			Crashes: map[dsys.ProcessID]time.Duration{
				2: 300 * time.Millisecond,
				5: 600 * time.Millisecond,
			},
			Build:  fdlab.MustStack(r.stack).Build(0),
			RunFor: runFor,
		})
		tr := res.Trace
		verdicts := []check.Verdict{
			tr.StrongCompleteness(), tr.WeakCompleteness(),
			tr.EventualStrongAccuracy(), tr.EventualWeakAccuracy(),
			tr.OmegaProperty(), tr.ECConsistency(),
		}
		cells := []any{r.name}
		for _, v := range verdicts {
			cells = append(cells, vcell(v))
		}
		var rerr error
		for _, has := range r.has {
			rerr = firstErr(rerr, checkf(has(tr).Holds, "E1", "%s lacks a property of %s", r.name, r.class))
		}
		if r.lacks != nil {
			rerr = firstErr(rerr, checkf(!r.lacks(tr).Holds, "E1", "%s has a property %s rules out", r.name, r.class))
		}
		return classTrial{cells: cells, rerr: rerr}
	})
	var err error
	for i, res := range results {
		verdict := rows[i].class + " ok"
		if res.rerr != nil {
			verdict = "FAILED"
			if err == nil {
				err = res.rerr
			}
		}
		t.AddRow(append(res.cells, verdict)...)
	}
	return t, err
}

// E2TransformCorrectness reproduces Theorem 1: the Fig. 2 transformation
// yields ◇P under the theorem's minimal link assumptions — partially
// synchronous input links to the leader, fair-lossy output links from it,
// nothing guaranteed elsewhere — across loss rates and stabilization times.
func E2TransformCorrectness(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "◇C→◇P transformation correctness under Theorem 1 link assumptions",
		Claim:   "Theorem 1: strong completeness + eventual strong accuracy with only the leader's input links partially synchronous and its output links fair-lossy",
		Columns: []string{"n", "output loss", "GST", "◇P holds", "stabilized", "crash detected after"},
	}
	ns := []int{5, 9}
	losses := []float64{0, 0.3, 0.6}
	gsts := []time.Duration{0, 300 * time.Millisecond}
	if quick {
		ns = []int{5}
		losses = []float64{0, 0.5}
	}
	type cell struct {
		n    int
		loss float64
		gst  time.Duration
		seed int64
	}
	var sweep []cell
	seed := int64(200)
	for _, n := range ns {
		for _, loss := range losses {
			for _, gst := range gsts {
				seed++
				sweep = append(sweep, cell{n: n, loss: loss, gst: gst, seed: seed})
			}
		}
	}
	type cellResult struct {
		v   check.Verdict
		lat time.Duration
	}
	results := runTrials(len(sweep), func(i int) cellResult {
		c := sweep[i]
		crashTarget := dsys.ProcessID(c.n - 1)
		crashAt := c.gst + 300*time.Millisecond
		res := fdlab.Run(fdlab.Setup{
			N:           c.n,
			Seed:        c.seed,
			Net:         theoremOneNet(c.n, 1, c.gst, 10*time.Millisecond, c.loss),
			Crashes:     map[dsys.ProcessID]time.Duration{crashTarget: crashAt},
			Build:       fdlab.MustStack("transform-scripted").Build(0),
			RunFor:      6 * time.Second,
			SampleEvery: 2 * time.Millisecond,
		})
		return cellResult{
			v:   res.Trace.EventuallyPerfect(),
			lat: res.Trace.Detection(crashTarget),
		}
	})
	var err error
	for i, r := range results {
		c := sweep[i]
		t.AddRow(c.n, fmt.Sprintf("%.0f%%", c.loss*100), msd(c.gst), mark(r.v.Holds), vcell(r.v), msd(r.lat))
		if err == nil {
			err = firstErr(
				checkf(r.v.Holds, "E2", "◇P failed at n=%d loss=%.1f gst=%v", c.n, c.loss, c.gst),
				checkf(r.lat >= 0, "E2", "crash never detected at n=%d loss=%.1f gst=%v", c.n, c.loss, c.gst),
			)
		}
	}
	return t, err
}

// theoremOneNet builds the Theorem 1 link assumptions around leader ℓ: its
// input links are partially synchronous, its output links fair-lossy with
// probability loss, and all other links are slow and very lossy.
func theoremOneNet(n int, leader dsys.ProcessID, gst, delta time.Duration, loss float64) network.Network {
	ps := network.PartiallySynchronous{GST: gst, Delta: delta}
	links := make(map[network.LinkKey]network.Network)
	for _, q := range dsys.Pids(n) {
		if q == leader {
			continue
		}
		links[network.LinkKey{From: q, To: leader}] = ps
		links[network.LinkKey{From: leader, To: q}] = network.FairLossy{P: loss, Under: ps}
	}
	other := network.FairLossy{P: 0.7, Under: network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 150 * time.Millisecond}}}
	return network.PerLink{Default: other, Links: links}
}

// E3MessagesPerPeriod reproduces the cost analysis of Section 4: periodic
// message counts of the ◇P implementations in steady state.
func E3MessagesPerPeriod(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Periodic messages of ◇P implementations (steady state, per heartbeat period)",
		Claim:   "Section 4: transformation costs 2(n−1) vs n² for Chandra–Toueg ◇P; piggybacking halves the transformation's own traffic (full ◇P stack: 2(n−1))",
		Columns: []string{"n", "CT ◇P (meas)", "n²−n", "ring ◇C (meas)", "n", "transform (meas)", "2(n−1)", "piggyback stack (meas)", "2(n−1) "},
	}
	ns := []int{4, 8, 16, 32, 64}
	if quick {
		ns = []int{4, 8, 16}
	}
	period := 10 * time.Millisecond
	winFrom, winTo := 500*time.Millisecond, 1000*time.Millisecond
	periods := int((winTo - winFrom) / period)
	// One trial per (n, detector stack): the largest-n heartbeat run is the
	// long pole, so the sweep is flattened for the worker pool rather than
	// fanned per n.
	stacks := []string{"heartbeat", "ring", "transform-scripted", "piggyback"}
	net := network.Reliable{Latency: network.Fixed(time.Millisecond)}
	results := runTrials(len(ns)*len(stacks), func(i int) float64 {
		n, si := ns[i/len(stacks)], i%len(stacks)
		st := fdlab.MustStack(stacks[si])
		res := fdlab.Run(fdlab.Setup{N: n, Seed: int64(300 + si), Net: net, RunFor: winTo, Build: st.Build(period)})
		return float64(res.Messages.SentBetween(winFrom, winTo, st.Kinds...)) / float64(periods)
	})
	var err error
	for ni, n := range ns {
		cells := []any{n}
		for si, s := range stacks {
			got, want := results[ni*len(stacks)+si], fdlab.MustStack(s).PerPeriod(n)
			cells = append(cells, got, want)
			if err == nil {
				err = checkf(int(got) == want, "E3", "%s n=%d: %v msgs/period, want %d", s, n, got, want)
			}
		}
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes,
		"ring detector is the optimized variant carrying lists on its single heartbeat chain (n/period); the DISC'99 ◇P ring the paper quotes at 2n sends beats and lists separately",
		"piggyback stack = LeaderBeat Ω (n−1) + I-AM-ALIVEs (n−1); standalone transform = lists (n−1) + I-AM-ALIVEs (n−1), excluding the underlying detector")
	return t, err
}

// E4DetectionLatency reproduces the latency observation at the end of
// Section 4: the leader-centric transformation does not suffer the ring's
// crash-detection latency, which grows with n as the suspect list propagates
// hop by hop.
func E4DetectionLatency(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Crash detection latency until ALL correct processes suspect (crash after stabilization)",
		Claim:   "Section 4: the transformation avoids the high crash-detection latency of the ring ◇P (list propagation around the ring)",
		Columns: []string{"n", "heartbeat ◇P", "ring ◇C", "transform over scripted ◇C"},
	}
	ns := []int{8, 16, 32}
	if quick {
		ns = []int{8, 16}
	}
	crashAt := 500 * time.Millisecond
	net := network.Reliable{Latency: network.Fixed(time.Millisecond)}
	stacks := []string{"heartbeat", "ring", "transform-scripted"}
	lats := runTrials(len(ns)*len(stacks), func(i int) time.Duration {
		n, si := ns[i/len(stacks)], i%len(stacks)
		victim := dsys.ProcessID(n / 2)
		res := fdlab.Run(fdlab.Setup{
			N: n, Seed: int64(400 + si), Net: net,
			Crashes:     map[dsys.ProcessID]time.Duration{victim: crashAt},
			Build:       fdlab.MustStack(stacks[si]).Build(0),
			RunFor:      crashAt + 4*time.Second,
			SampleEvery: 2 * time.Millisecond,
		})
		return res.Trace.Detection(victim)
	})
	var ringLat, tfLat []time.Duration
	var err error
	for ni, n := range ns {
		hbL, rgL, tfL := lats[ni*3], lats[ni*3+1], lats[ni*3+2]
		ringLat = append(ringLat, rgL)
		tfLat = append(tfLat, tfL)
		t.AddRow(n, msd(hbL), msd(rgL), msd(tfL))
		if err == nil {
			err = firstErr(
				checkf(hbL >= 0 && rgL >= 0 && tfL >= 0, "E4", "crash not detected at n=%d", n),
			)
		}
	}
	last := len(ringLat) - 1
	if err == nil {
		err = firstErr(
			// The ring's latency grows with n; the transform's stays flat
			// and beats the ring at scale.
			checkf(ringLat[last] > ringLat[0], "E4", "ring latency did not grow with n: %v vs %v", ringLat[last], ringLat[0]),
			checkf(tfLat[last] < ringLat[last], "E4", "transform (%v) did not beat ring (%v) at n=%d", tfLat[last], ringLat[last], ns[last]),
			checkf(tfLat[last] < 2*tfLat[0]+20*time.Millisecond, "E4", "transform latency grew with n: %v vs %v", tfLat[last], tfLat[0]),
		)
	}
	return t, err
}
