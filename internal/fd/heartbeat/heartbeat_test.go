package heartbeat_test

import (
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/heartbeat"
	"repro/internal/network"
)

func run(t *testing.T, n int, seed int64, net network.Network, crashes map[dsys.ProcessID]time.Duration, opt heartbeat.Options, runFor time.Duration) fdlab.Result {
	t.Helper()
	return fdlab.Run(fdlab.Setup{
		N:       n,
		Seed:    seed,
		Net:     net,
		Crashes: crashes,
		RunFor:  runFor,
		Build:   func(p dsys.Proc) any { return heartbeat.Start(p, opt) },
	})
}

func TestEventuallyPerfectUnderPartialSynchrony(t *testing.T) {
	gst := 200 * time.Millisecond
	res := run(t, 5, 1,
		fdlab.PartialSync(gst, 15*time.Millisecond),
		map[dsys.ProcessID]time.Duration{2: 300 * time.Millisecond, 4: 50 * time.Millisecond},
		heartbeat.Options{}, 2*time.Second)
	v := res.Trace.EventuallyPerfect()
	if !v.Holds {
		t.Fatal("◇P properties do not hold")
	}
	if v.From >= res.End-500*time.Millisecond {
		t.Errorf("stabilized too late: %v (run end %v)", v.From, res.End)
	}
}

func TestCompletenessDetectsEveryCrash(t *testing.T) {
	crashes := map[dsys.ProcessID]time.Duration{
		1: 100 * time.Millisecond,
		3: 400 * time.Millisecond,
		6: 150 * time.Millisecond,
	}
	res := run(t, 7, 2, fdlab.PartialSync(0, 10*time.Millisecond), crashes, heartbeat.Options{}, 2*time.Second)
	if v := res.Trace.StrongCompleteness(); !v.Holds {
		t.Error("strong completeness violated")
	}
	// Detection should not take more than a few timeouts past the crash.
	for _, p := range res.Trace.CorrectIDs() {
		for _, s := range res.Trace.Rec.Samples(p) {
			if s.At > 700*time.Millisecond {
				for q, at := range crashes {
					if s.At > at+200*time.Millisecond && !s.Suspected.Has(q) {
						t.Fatalf("%v not suspecting crashed %v at %v", p, q, s.At)
					}
				}
			}
		}
	}
}

func TestNoFalseSuspicionsInSynchronousCalm(t *testing.T) {
	// With generous timeouts and tight latencies nobody should ever be
	// suspected at all.
	res := run(t, 4, 3, network.Reliable{Latency: network.Fixed(time.Millisecond)}, nil,
		heartbeat.Options{Period: 10 * time.Millisecond, InitialTimeout: 50 * time.Millisecond},
		time.Second)
	for _, id := range res.Trace.CorrectIDs() {
		d := res.Modules[id].(*heartbeat.Detector)
		if d.FalseSuspicions() != 0 {
			t.Errorf("%v made %d false suspicions", id, d.FalseSuspicions())
		}
		for _, s := range res.Trace.Rec.Samples(id) {
			if s.Suspected.Len() != 0 {
				t.Fatalf("%v suspected %v at %v", id, s.Suspected, s.At)
			}
		}
	}
}

func TestAdaptiveTimeoutsRecoverAccuracy(t *testing.T) {
	// Initial timeout (30ms default) below the latency bound Δ=80ms: early
	// false suspicions are inevitable, but adaptive growth must eventually
	// silence them.
	res := run(t, 4, 4, fdlab.PartialSync(0, 80*time.Millisecond), nil, heartbeat.Options{}, 8*time.Second)
	v := res.Trace.EventualStrongAccuracy()
	if !v.Holds {
		t.Fatal("eventual strong accuracy does not hold despite adaptive timeouts")
	}
	anyFalse := false
	for _, id := range res.Trace.CorrectIDs() {
		if res.Modules[id].(*heartbeat.Detector).FalseSuspicions() > 0 {
			anyFalse = true
		}
	}
	if !anyFalse {
		t.Error("scenario too easy: no false suspicions occurred, adaptivity untested")
	}
}

func TestFixedTimeoutAblationKeepsFlapping(t *testing.T) {
	// Ablation (DESIGN.md decision 2): with a fixed timeout below Δ the
	// detector keeps making mistakes forever — eventual strong accuracy
	// relies on adaptivity.
	opt := heartbeat.Options{
		Period:         10 * time.Millisecond,
		InitialTimeout: 20 * time.Millisecond,
		FixedTimeout:   true,
	}
	res := run(t, 4, 5, fdlab.PartialSync(0, 100*time.Millisecond), nil, opt, 8*time.Second)
	total := 0
	for _, id := range res.Trace.CorrectIDs() {
		total += res.Modules[id].(*heartbeat.Detector).FalseSuspicions()
	}
	if total < 50 {
		t.Errorf("expected persistent flapping, saw only %d false suspicions", total)
	}
}

func TestTimeoutGrowsOnFalseSuspicion(t *testing.T) {
	const seed = 6
	res := run(t, 2, seed, fdlab.PartialSync(0, 100*time.Millisecond), nil, heartbeat.Options{}, 4*time.Second)
	d := res.Modules[dsys.ProcessID(1)].(*heartbeat.Detector)
	if d.FalseSuspicions() == 0 {
		// The run is deterministic: no false suspicion means the schedule
		// of the seed moved, and the test no longer tests timeout growth.
		t.Fatalf("seed %d produced no false suspicion at p1; the scenario's schedule changed", seed)
	}
	if d.Timeout(2) <= 30*time.Millisecond {
		t.Errorf("timeout did not grow: %v", d.Timeout(2))
	}
}

func TestQuadraticMessageCost(t *testing.T) {
	// n(n-1) heartbeats per period: measure a steady-state window.
	for _, n := range []int{4, 8} {
		res := fdlab.Run(fdlab.Setup{
			N:    n,
			Seed: 7,
			Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Build: func(p dsys.Proc) any {
				return heartbeat.Start(p, heartbeat.Options{Period: 10 * time.Millisecond})
			},
			RunFor: time.Second,
		})
		window := 500 * time.Millisecond
		periods := int(window / (10 * time.Millisecond))
		got := res.Messages.SentBetween(400*time.Millisecond, 400*time.Millisecond+window, heartbeat.KindAlive)
		want := periods * n * (n - 1)
		if got != want {
			t.Errorf("n=%d: %d heartbeats in %d periods, want exactly %d", n, got, periods, want)
		}
	}
}
