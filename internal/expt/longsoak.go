package expt

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/heartbeat"
	"repro/internal/network"
)

// E19LongHorizonSoak runs one detector deployment continuously for hours of
// virtual time (90s in quick mode) under the two stresses a long-lived
// deployment actually sees: churn — processes crashing one by one across the
// whole run — and GST oscillation, a network that cycles between chaos
// windows (heavy jitter and loss, i.e. "before GST") and calm windows
// ("after GST"). The paper's eventual properties are finite-suffix claims,
// so a soak is the regime that distinguishes them from lucky short runs:
// every chaos window manufactures false suspicions that must be retracted,
// every crash must still be permanently detected, and by the end of the last
// calm window the output must be exactly the crashed set at every survivor.
//
// The run is also the simulator's long-horizon stress: a single kernel
// advances through hours of virtual time — hundreds of millions of timer
// ticks through every level of the timing wheel, with the event arena
// recycling the same few thousand slots throughout — which is the workload
// the goroutine-free fast path and the arena exist for. The table is fully
// deterministic (wall-clock cost goes to stderr like every experiment's).
func E19LongHorizonSoak(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E19",
		Title:   "Long-horizon soak: churn + GST oscillation over hours of virtual time",
		Claim:   "Sections 3–4: completeness and eventual accuracy are suffix properties — under repeated pre-GST chaos the detector keeps making (then retracting) bounded mistakes, yet every crash is permanently detected and the final output is exact",
		Columns: []string{"t", "crashed", "survivors", "detected", "wrong"},
	}
	const (
		n      = 32
		period = 100 * time.Millisecond
	)
	chaosLen, cycle := 8*time.Minute, 20*time.Minute
	runFor := 4 * time.Hour // 12 cycles
	sampleEvery := 30 * time.Second
	crashEvery, firstCrash, nCrashes := 25*time.Minute, 20*time.Minute, 8
	if quick {
		chaosLen, cycle = 12*time.Second, 30*time.Second
		runFor = 90 * time.Second
		sampleEvery = time.Second
		crashEvery, firstCrash, nCrashes = 30*time.Second, 20*time.Second, 2
	}
	// The oscillating link: each cycle opens with a chaos window (delays an
	// order of magnitude past the calm bound, 20% loss), then settles into a
	// calm window, so the run ends calm. Deterministic per seed: delays and
	// drops are drawn from the kernel's seeded stream as a pure function of
	// virtual time.
	net := network.Func(func(from, to dsys.ProcessID, kind string, now time.Duration, rng *rand.Rand) (time.Duration, bool) {
		if now%cycle < chaosLen {
			lost := rng.Float64() < 0.2
			return time.Duration(rng.Int63n(int64(3 * period))), lost
		}
		return time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Millisecond))), false
	})
	crashes := map[dsys.ProcessID]time.Duration{}
	for i := 0; i < nCrashes; i++ {
		// Victims spread across the id space, none adjacent.
		crashes[dsys.ProcessID(1+(i*7)%n)] = firstCrash + time.Duration(i)*crashEvery
	}
	res := fdlab.Run(fdlab.Setup{
		N: n, Seed: 1900, Net: net,
		Crashes:     crashes,
		Build:       fdlab.MustStack("heartbeat").Build(period),
		SampleEvery: sampleEvery,
		RunFor:      runFor,
	})
	// One row per oscillation cycle, read off the last sample at or before
	// the cycle's end: how many of the crashed are suspected by every
	// survivor (detected), and how many live processes anyone still wrongly
	// suspects — the number that must decay to zero by the end of each calm
	// window.
	sampleAt := func(id dsys.ProcessID, at time.Duration) (s struct {
		ok  bool
		sus map[dsys.ProcessID]bool
	}) {
		for _, smp := range res.Trace.Rec.Samples(id) {
			if smp.At > at {
				break
			}
			s.ok = true
			s.sus = map[dsys.ProcessID]bool{}
			for _, q := range smp.Suspected.Members() {
				s.sus[q] = true
			}
		}
		return s
	}
	var err error
	var lastDetected, lastWrong, lastCrashed, lastSurvivors int
	for cp := cycle; cp <= runFor; cp += cycle {
		var crashed, survivors []dsys.ProcessID
		for _, id := range dsys.Pids(n) {
			if at, ok := crashes[id]; ok && at <= cp {
				crashed = append(crashed, id)
			} else {
				survivors = append(survivors, id)
			}
		}
		detected, wrong := 0, 0
		suspectedByAll := func(q dsys.ProcessID) bool {
			for _, id := range survivors {
				if s := sampleAt(id, cp); !s.ok || !s.sus[q] {
					return false
				}
			}
			return true
		}
		for _, q := range crashed {
			if suspectedByAll(q) {
				detected++
			}
		}
		for _, q := range survivors {
			for _, id := range survivors {
				if id == q {
					continue
				}
				if s := sampleAt(id, cp); s.ok && s.sus[q] {
					wrong++
					break
				}
			}
		}
		t.AddRow(cp.String(), len(crashed), len(survivors), detected, wrong)
		lastDetected, lastWrong, lastCrashed, lastSurvivors = detected, wrong, len(crashed), len(survivors)
	}
	falseSusp := 0
	for _, m := range res.Modules {
		falseSusp += m.(*heartbeat.Detector).FalseSuspicions()
	}
	if err == nil {
		err = firstErr(
			checkf(lastDetected == lastCrashed, "E19", "final window: only %d of %d crashes permanently detected by all %d survivors", lastDetected, lastCrashed, lastSurvivors),
			checkf(lastWrong == 0, "E19", "final window: %d live processes still wrongly suspected", lastWrong),
			checkf(falseSusp > 0, "E19", "no false suspicions over the whole soak: the chaos windows did not stress the detector"),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("each %v cycle opens with %v of chaos (delays to %v, 20%% loss) then settles calm; crashes land every %v from %v",
			cycle, chaosLen, 3*period, crashEvery, firstCrash),
		fmt.Sprintf("run = %v of virtual time, %d simulator events, %d false suspicions made and retracted across the soak",
			runFor, res.Events, falseSusp),
		"detected counts crashes suspected by every survivor at the cycle's end; wrong counts live processes anyone still suspects there")
	return t, err
}
