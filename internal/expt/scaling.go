package expt

import (
	"fmt"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/network"
)

// e14Sizes, when non-empty, overrides the E14 sweep's process counts
// (cmd/ecrepro's -n flag).
var e14Sizes []int

// SetE14Sizes replaces the E14 scaling sweep's process counts. The variant
// rules still apply per size: the Θ(n²) heartbeat only runs at n ≤ 256.
func SetE14Sizes(ns ...int) { e14Sizes = ns }

// scaleCell is one (n, detector) measurement of the E14 sweep.
type scaleCell struct {
	msgs   float64       // steady-state messages per heartbeat period
	detect time.Duration // crash detection latency, -1 if undetected
	wall   time.Duration // wall-clock of the run (nondeterministic)
	events uint64        // simulator events fired by the run
}

// E14ScalingSweep measures the Section 5.4 cost claims at the scale the
// analysis is actually about: the ◇C→◇P transformation costs Θ(n) messages
// per period while the Chandra–Toueg ◇P heartbeat costs Θ(n²), so their
// absolute gap — the reason the transformation exists — only becomes dramatic
// at large n. The sweep runs the two Θ(n) detector shapes up to n=4096
// (the Θ(n²) heartbeat is capped at n=256, where its steady state alone is
// ~65k messages per 10ms period) and
// reports, per (n, detector): steady-state msgs/period against the closed
// form, detection latency of a mid-ring crash, and the simulator's wall-clock
// and events/s for that run (the kernel-scaling numbers the timing-wheel
// event queue and kind-indexed dispatch exist for).
func E14ScalingSweep(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Scaling sweep to n=4096: periodic message cost, detection latency, simulator throughput",
		Claim:   "Section 5.4: the transformation sends 2(n−1) = Θ(n) msgs/period versus Θ(n²) for Chandra–Toueg ◇P, with flat detection latency; the ring is Θ(n) but detects in Θ(n) time",
		Columns: []string{"n", "detector", "msgs/period", "expected", "detect", "wall", "events/s"},
	}
	ns := []int{8, 16, 32, 64, 128, 256, 1024, 4096}
	if quick {
		ns = []int{8, 32, 128, 256, 1024, 4096}
	}
	if len(e14Sizes) > 0 {
		ns = e14Sizes
	}
	const period = 10 * time.Millisecond
	// Steady-state window: with a reliable 1ms-latency net and 3·period
	// initial timeouts there are no false suspicions, so the periodic rate is
	// exact well before the window opens — and it closes before the crash.
	winFrom, winTo := 250*time.Millisecond, 500*time.Millisecond
	periods := int((winTo - winFrom) / period)
	crashAt := 500 * time.Millisecond
	net := network.Reliable{Latency: network.Fixed(time.Millisecond)}
	variants := []struct {
		name  string
		seed  int64
		stack fdlab.Stack
		// runFor is the virtual run length as a function of n: timeout-based
		// detectors settle a few timeouts after the crash regardless of n,
		// while the ring needs Θ(n) periods for the suspicion to propagate
		// hop by hop.
		runFor func(n int) time.Duration
	}{
		{"CT ◇P (heartbeat)", 1400, fdlab.MustStack("heartbeat"),
			func(int) time.Duration { return crashAt + 200*time.Millisecond }},
		{"ring ◇C", 1401, fdlab.MustStack("ring"),
			func(n int) time.Duration { return crashAt + time.Duration(2*n)*period + time.Second }},
		{"transform over scripted ◇C", 1402, fdlab.MustStack("transform-scripted"),
			func(int) time.Duration { return crashAt + 200*time.Millisecond }},
	}
	// Which variants run at a given n: the Θ(n²) CT heartbeat is capped at
	// n=256 — beyond that, one steady-state window alone costs tens of
	// millions of messages and the comparison is already settled — and quick
	// mode drops the ring at n=4096, whose Θ(n) detection horizon (2n
	// periods ≈ 82s of virtual time) makes it the one long run of the sweep.
	include := func(vi, n int) bool {
		switch vi {
		case 0:
			return n <= 256
		case 1:
			return !(quick && n > 2048)
		}
		return true
	}
	type pair struct{ n, vi int }
	var pairs []pair
	for _, n := range ns {
		for vi := range variants {
			if include(vi, n) {
				pairs = append(pairs, pair{n, vi})
			}
		}
	}
	cells := runTrials(len(pairs), func(i int) scaleCell {
		n, v := pairs[i].n, variants[pairs[i].vi]
		victim := dsys.ProcessID(n / 2)
		// Above n=256 the recorder samples on a coarser grid — 1% of the
		// run — so its per-process sample log stays bounded; the detection
		// column's granularity scales with the run instead of its memory.
		var sampleEvery time.Duration
		if n > 256 {
			sampleEvery = v.runFor(n) / 100
		}
		res := fdlab.Run(fdlab.Setup{
			N: n, Seed: v.seed, Net: net,
			Crashes:     map[dsys.ProcessID]time.Duration{victim: crashAt},
			Build:       v.stack.Build(period),
			RunFor:      v.runFor(n),
			SampleEvery: sampleEvery,
			CountWindow: [2]time.Duration{winFrom, winTo},
		})
		return scaleCell{
			msgs:   float64(res.Messages.SentWithin(v.stack.Kinds...)) / float64(periods),
			detect: res.Trace.Detection(victim),
			wall:   res.Wall,
			events: res.Events,
		}
	})
	var err error
	var hbOverTf []float64
	lastHbN := 0
	ci := 0
	for _, n := range ns {
		var hbM, tfM float64
		for vi, v := range variants {
			if !include(vi, n) {
				continue
			}
			c := cells[ci]
			ci++
			want := v.stack.PerPeriod(n)
			t.AddRow(n, v.name, fmt.Sprintf("%.0f", c.msgs), want,
				msd(c.detect), msd(c.wall), eventsPerSec(c.events, c.wall))
			if err == nil {
				err = firstErr(
					checkf(int(c.msgs) == want, "E14", "%s n=%d: %.0f msgs/period, want %d", v.name, n, c.msgs, want),
					checkf(c.detect >= 0, "E14", "%s n=%d: crash of %v not detected", v.name, n, dsys.ProcessID(n/2)),
				)
			}
			switch vi {
			case 0:
				hbM = c.msgs
			case 2:
				tfM = c.msgs
			}
		}
		if hbM > 0 && tfM > 0 {
			hbOverTf = append(hbOverTf, hbM/tfM)
			lastHbN = n
		}
	}
	// The crossover shape: ◇P-via-transform beats CT ◇P by a factor that
	// itself grows linearly in n (n²−n over 2(n−1) = n/2), checked over the
	// sizes where both ran.
	if err == nil && len(hbOverTf) >= 2 {
		first, last := hbOverTf[0], hbOverTf[len(hbOverTf)-1]
		err = firstErr(
			checkf(last > first*4, "E14", "msgs/period ratio CT/transform did not grow ~n: %.1f at smallest n vs %.1f at n=%d", first, last, lastHbN),
			checkf(last > float64(lastHbN)/2*0.9, "E14", "CT/transform ratio at n=%d is %.1f, want ≈ n/2", lastHbN, last),
		)
	}
	t.Notes = append(t.Notes,
		"msgs/period measured over the pre-crash steady-state window [250ms,500ms); expected = n²−n (CT), n (ring), 2(n−1) (transform)",
		"ring runs 2n periods past the crash: its suspicion list walks the ring hop by hop, so detection is Θ(n) where the others stay flat",
		"CT ◇P is capped at n=256 (Θ(n²) messages); n=1024/4096 rows run the two Θ(n) detectors, sampled at 1% of the run",
		"wall and events/s are wall-clock measurements (excluded from byte-identical determinism, like E13)")
	return t, err
}

// eventsPerSec formats an events-per-wall-second rate compactly.
func eventsPerSec(events uint64, wall time.Duration) string {
	if wall <= 0 {
		return "-"
	}
	r := float64(events) / wall.Seconds()
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.0fk", r/1e3)
	}
	return fmt.Sprintf("%.0f", r)
}
