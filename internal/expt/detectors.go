package expt

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/amplify"
	"repro/internal/fd/ec"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/neighbor"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
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
	type row struct {
		name  string
		build func(p dsys.Proc) any
		// wants: map property name -> required truth value (only the ones
		// the class definition pins down).
		class string
		want  func(tr check.FDTrace) error
	}
	rows := []row{
		{
			name:  "heartbeat (◇P)",
			build: func(p dsys.Proc) any { return heartbeat.Start(p, heartbeat.Options{}) },
			class: "◇P",
			want: func(tr check.FDTrace) error {
				return checkf(tr.EventuallyPerfect().Holds, "E1", "heartbeat is not ◇P")
			},
		},
		{
			name:  "ring (◇C native)",
			build: func(p dsys.Proc) any { return ring.Start(p, ring.Options{}) },
			class: "◇C",
			want: func(tr check.FDTrace) error {
				return checkf(tr.EventuallyConsistent().Holds, "E1", "ring is not ◇C")
			},
		},
		{
			name:  "neighbor (◇Q)",
			build: func(p dsys.Proc) any { return neighbor.Start(p, neighbor.Options{}) },
			class: "◇Q, not ◇P",
			want: func(tr check.FDTrace) error {
				return firstErr(
					checkf(tr.WeakCompleteness().Holds, "E1", "neighbor lacks weak completeness"),
					checkf(tr.EventualStrongAccuracy().Holds, "E1", "neighbor lacks eventual strong accuracy"),
					// ◇Q's defining gap: crashed processes are suspected by
					// some, not all, correct processes.
					checkf(!tr.StrongCompleteness().Holds, "E1", "neighbor unexpectedly achieved strong completeness"),
				)
			},
		},
		{
			name: "amplified neighbor (◇Q→◇P)",
			build: func(p dsys.Proc) any {
				nb := neighbor.Start(p, neighbor.Options{})
				return amplify.Start(p, nb, amplify.Options{})
			},
			class: "◇P",
			want: func(tr check.FDTrace) error {
				return checkf(tr.EventuallyPerfect().Holds, "E1", "amplified neighbor is not ◇P")
			},
		},
		{
			name:  "leaderbeat (Ω)",
			build: func(p dsys.Proc) any { return omega.StartLeaderBeat(p, omega.Options{}) },
			class: "Ω",
			want: func(tr check.FDTrace) error {
				return checkf(tr.OmegaProperty().Holds, "E1", "leaderbeat is not Ω")
			},
		},
		{
			name: "gossip Ω over heartbeat",
			build: func(p dsys.Proc) any {
				hb := heartbeat.Start(p, heartbeat.Options{})
				return omega.StartFromSuspector(p, hb, omega.Options{})
			},
			class: "Ω",
			want: func(tr check.FDTrace) error {
				return checkf(tr.OmegaProperty().Holds, "E1", "gossip reduction is not Ω")
			},
		},
		{
			name: "◇C from ◇P (first non-suspected)",
			build: func(p dsys.Proc) any {
				hb := heartbeat.Start(p, heartbeat.Options{})
				return ec.FromPerfect{S: hb, N: p.N()}
			},
			class: "◇C",
			want: func(tr check.FDTrace) error {
				return checkf(tr.EventuallyConsistent().Holds, "E1", "FromPerfect is not ◇C")
			},
		},
		{
			name: "◇C from Ω (suspect all but leader)",
			build: func(p dsys.Proc) any {
				om := omega.StartLeaderBeat(p, omega.Options{})
				return ec.FromLeader{L: om, N: p.N()}
			},
			class: "◇C, not ◇P",
			want: func(tr check.FDTrace) error {
				return firstErr(
					checkf(tr.EventuallyConsistent().Holds, "E1", "FromLeader is not ◇C"),
					// The paper's accuracy observation: this construction
					// cannot be ◇P — it suspects all correct processes but
					// one.
					checkf(!tr.EventualStrongAccuracy().Holds, "E1", "FromLeader unexpectedly achieved eventual strong accuracy"),
				)
			},
		},
		{
			name: "◇C from ◇Q/◇W (amplify + gossip Ω + compose)",
			build: func(p dsys.Proc) any {
				// The full Section 3 route for building ◇C on a weakly
				// complete detector: amplify ◇W/◇Q completeness to ◇S/◇P,
				// derive Ω by gossip, and compose.
				nb := neighbor.Start(p, neighbor.Options{})
				amp := amplify.Start(p, nb, amplify.Options{})
				om := omega.StartFromSuspector(p, amp, omega.Options{})
				return ec.Compose{S: amp, L: om}
			},
			class: "◇C",
			want: func(tr check.FDTrace) error {
				return checkf(tr.EventuallyConsistent().Holds, "E1", "◇W route is not ◇C")
			},
		},
		{
			name: "transform over ring (Fig. 2 → ◇P)",
			build: func(p dsys.Proc) any {
				r := ring.Start(p, ring.Options{})
				return fdPair{Suspector: transform.Start(p, r, transform.Options{}), LeaderOracle: r}
			},
			class: "◇P",
			want: func(tr check.FDTrace) error {
				return checkf(tr.EventuallyPerfect().Holds, "E1", "transform over ring is not ◇P")
			},
		},
		{
			name: "piggybacked transform over Ω",
			build: func(p dsys.Proc) any {
				om := omega.StartLeaderBeat(p, omega.Options{})
				return fdPair{Suspector: transform.Start(p, om, transform.Options{Piggyback: om}), LeaderOracle: om}
			},
			class: "◇P",
			want: func(tr check.FDTrace) error {
				return checkf(tr.EventuallyPerfect().Holds, "E1", "piggybacked transform is not ◇P")
			},
		},
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
			Build:  r.build,
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
		return classTrial{cells: cells, rerr: r.want(tr)}
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

// fdPair exposes a Suspector and a LeaderOracle from different modules as
// one probe target (the transform provides the suspect list, the underlying
// detector the leader).
type fdPair struct {
	fd.Suspector
	fd.LeaderOracle
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
			N:       c.n,
			Seed:    c.seed,
			Net:     theoremOneNet(c.n, 1, c.gst, 10*time.Millisecond, c.loss),
			Crashes: map[dsys.ProcessID]time.Duration{crashTarget: crashAt},
			Build: func(p dsys.Proc) any {
				return transform.Start(p, fdtest.NewScripted(1), transform.Options{})
			},
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
	// One trial per (n, detector variant): the largest-n heartbeat run is the
	// long pole, so the sweep is flattened for the worker pool rather than
	// fanned per n.
	variants := []struct {
		seed  int64
		build func(p dsys.Proc) any
		kinds []string
	}{
		{300, func(p dsys.Proc) any { return heartbeat.Start(p, heartbeat.Options{Period: period}) },
			[]string{heartbeat.KindAlive}},
		{301, func(p dsys.Proc) any { return ring.Start(p, ring.Options{Period: period}) },
			[]string{ring.KindBeat, ring.KindWatch}},
		{302, func(p dsys.Proc) any {
			return transform.Start(p, fdtest.NewScripted(1), transform.Options{Period: period})
		}, []string{transform.KindAlive, transform.KindList}},
		{303, func(p dsys.Proc) any {
			om := omega.StartLeaderBeat(p, omega.Options{Period: period})
			return transform.Start(p, om, transform.Options{Period: period, Piggyback: om})
		}, []string{transform.KindAlive, transform.KindList, omega.KindLeaderBeat}},
	}
	net := network.Reliable{Latency: network.Fixed(time.Millisecond)}
	results := runTrials(len(ns)*len(variants), func(i int) float64 {
		n, v := ns[i/len(variants)], variants[i%len(variants)]
		res := fdlab.Run(fdlab.Setup{N: n, Seed: v.seed, Net: net, RunFor: winTo, Build: v.build})
		return float64(res.Messages.SentBetween(winFrom, winTo, v.kinds...)) / float64(periods)
	})
	var err error
	for ni, n := range ns {
		hbM, rgM, tfM, pgM := results[ni*4], results[ni*4+1], results[ni*4+2], results[ni*4+3]
		t.AddRow(n, hbM, n*n-n, rgM, n, tfM, 2*(n-1), pgM, 2*(n-1))
		if err == nil {
			err = firstErr(
				checkf(int(hbM) == n*n-n, "E3", "CT ◇P n=%d: %v msgs/period, want %d", n, hbM, n*n-n),
				checkf(int(rgM) == n, "E3", "ring n=%d: %v msgs/period, want %d", n, rgM, n),
				checkf(int(tfM) == 2*(n-1), "E3", "transform n=%d: %v msgs/period, want %d", n, tfM, 2*(n-1)),
				checkf(int(pgM) == 2*(n-1), "E3", "piggyback stack n=%d: %v msgs/period, want %d", n, pgM, 2*(n-1)),
			)
		}
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
	builders := []struct {
		seed  int64
		build func(p dsys.Proc) any
	}{
		{400, func(p dsys.Proc) any { return heartbeat.Start(p, heartbeat.Options{}) }},
		{401, func(p dsys.Proc) any { return ring.Start(p, ring.Options{}) }},
		{402, func(p dsys.Proc) any {
			return transform.Start(p, fdtest.NewScripted(1), transform.Options{})
		}},
	}
	lats := runTrials(len(ns)*len(builders), func(i int) time.Duration {
		n, b := ns[i/len(builders)], builders[i%len(builders)]
		victim := dsys.ProcessID(n / 2)
		res := fdlab.Run(fdlab.Setup{
			N: n, Seed: b.seed, Net: net,
			Crashes:     map[dsys.ProcessID]time.Duration{victim: crashAt},
			Build:       b.build,
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
