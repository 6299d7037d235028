package cec_test

import (
	"testing"
	"time"

	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
)

// TestHalfCrashesBlockButStaySafe exercises the paper's necessity remark
// (Section 5.2): f < n/2 is required — with exactly n/2 processes crashed,
// no majority of estimates or acks can form, so no survivor can decide; but
// safety (nobody decides anything wrong) must hold while they wait forever.
func TestHalfCrashesBlockButStaySafe(t *testing.T) {
	n := 4
	res := conslab.Run(conslab.Setup{
		N:    n,
		Seed: 1,
		Net:  network.PartiallySynchronous{GST: 0, Delta: 5 * time.Millisecond},
		Crashes: map[dsys.ProcessID]time.Duration{
			3: 5 * time.Millisecond,
			4: 5 * time.Millisecond,
		},
		Run:    cecAlgo.Paired,
		RunFor: 3 * time.Second,
	})
	if got := res.Log.DecidedCount(); got != 0 {
		t.Errorf("%d processes decided with only a minority correct — the majority requirement is load-bearing", got)
	}
}

// TestBareMajoritySurvivesAndDecides is the boundary's other side: with
// f = ⌊(n−1)/2⌋ crashes (one fewer than blocking), the bare majority still
// decides.
func TestBareMajoritySurvivesAndDecides(t *testing.T) {
	n := 4
	res := conslab.Run(conslab.Setup{
		N:    n,
		Seed: 2,
		Net:  network.PartiallySynchronous{GST: 0, Delta: 5 * time.Millisecond},
		Crashes: map[dsys.ProcessID]time.Duration{
			4: 5 * time.Millisecond, // f = 1 = MaxFaulty(4)
		},
		Run: cecAlgo.Paired,
	})
	if err := res.Verify(n); err != nil {
		t.Fatal(err)
	}
}

// TestUniformAgreementWithDecidingCrasher checks the *uniform* in Uniform
// Consensus (Section 5.1): a process that decides and then immediately
// crashes must not have decided differently from the survivors — its
// decision counts. The coordinator p1 decides first in this configuration;
// crash it right after its decision lands.
func TestUniformAgreementWithDecidingCrasher(t *testing.T) {
	const seed = 3
	c := fdtest.NewCluster(5, 1)
	res := conslab.Run(conslab.Setup{
		N:    5,
		Seed: seed,
		Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
		Run:  cecAlgo.Scripted(c),
		Crashes: map[dsys.ProcessID]time.Duration{
			// The coordinator decides at ~5-6ms (see E5); crash right after.
			1: 7 * time.Millisecond,
		},
	})
	d1, ok := res.Log.Decided(1)
	if !ok {
		// The run is deterministic: p1 crashing undecided means the
		// schedule of the seed moved, and there is nothing uniform to check.
		t.Fatalf("seed %d: p1 crashed before deciding; the scenario's schedule changed", seed)
	}
	for _, id := range []dsys.ProcessID{2, 3, 4, 5} {
		d, ok := res.Log.Decided(id)
		if !ok {
			t.Fatalf("%v never decided", id)
		}
		if d.Value != d1.Value {
			t.Fatalf("uniform agreement violated: crashed decider chose %v, %v chose %v", d1.Value, id, d.Value)
		}
	}
}
