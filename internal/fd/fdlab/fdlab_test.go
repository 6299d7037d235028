package fdlab_test

import (
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/fdtest"
	"repro/internal/live"
	"repro/internal/network"
)

func TestRunWiresProbesAndCrashes(t *testing.T) {
	crashAt := 100 * time.Millisecond
	res := fdlab.Run(fdlab.Setup{
		N:       3,
		Seed:    1,
		Net:     network.Reliable{Latency: network.Fixed(time.Millisecond)},
		Crashes: map[dsys.ProcessID]time.Duration{2: crashAt},
		Build:   func(p dsys.Proc) any { return fdtest.NewScripted(1, 3) },
		RunFor:  300 * time.Millisecond,
	})
	if res.End != 300*time.Millisecond {
		t.Errorf("End = %v", res.End)
	}
	if at, ok := res.Trace.Crashed[2]; !ok || at != crashAt {
		t.Errorf("crash record %v %v", at, ok)
	}
	// Samples exist for correct processes and stop for the crashed one.
	s1 := res.Trace.Rec.Samples(1)
	s2 := res.Trace.Rec.Samples(2)
	if len(s1) == 0 {
		t.Fatal("no samples for p1")
	}
	last1 := s1[len(s1)-1]
	if last1.Trusted != 1 || !last1.Suspected.Has(3) {
		t.Errorf("probe wiring wrong: %+v", last1)
	}
	for _, s := range s2 {
		if s.At > crashAt {
			t.Errorf("crashed process sampled at %v", s.At)
		}
	}
	if len(res.Modules) != 3 {
		t.Errorf("Modules has %d entries", len(res.Modules))
	}
}

// TestRunLiveWiresProbesAndCrashes is RunLive's counterpart of the test
// above, on a live cluster with the in-memory network: the crash lands on
// schedule and is recorded on the cluster clock, the crashed process stops
// being sampled, and the survivors' probes are wired.
func TestRunLiveWiresProbesAndCrashes(t *testing.T) {
	c := live.NewCluster(live.Config{N: 3, Network: network.Reliable{Latency: network.Fixed(time.Millisecond)}})
	defer c.Stop()
	crashAt := 100 * time.Millisecond
	tr := fdlab.RunLive(c, fdlab.Setup{
		N:           3,
		Crashes:     map[dsys.ProcessID]time.Duration{2: crashAt},
		Build:       func(p dsys.Proc) any { return fdtest.NewScripted(1, 3) },
		SampleEvery: 10 * time.Millisecond,
		RunFor:      300 * time.Millisecond,
	})
	at, ok := tr.Crashed[2]
	if !ok || at < crashAt || !c.Crashed(2) {
		t.Fatalf("crash record %v %v, want p2 crashed at or after %v", at, ok, crashAt)
	}
	s1 := tr.Rec.Samples(1)
	if len(s1) < 10 {
		t.Fatalf("%d samples for p1 over 300ms at 10ms", len(s1))
	}
	if last := s1[len(s1)-1]; last.Trusted != 1 || !last.Suspected.Has(3) {
		t.Errorf("probe wiring wrong: %+v", last)
	}
	for _, s := range tr.Rec.Samples(2) {
		if s.At > at {
			t.Errorf("crashed process sampled at %v, after its crash at %v", s.At, at)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	res := fdlab.Run(fdlab.Setup{
		N:     2,
		Seed:  1,
		Net:   network.Reliable{Latency: network.Fixed(time.Millisecond)},
		Build: func(p dsys.Proc) any { return fdtest.NewScripted(1) },
	})
	// Default RunFor is 2s and default sampling 5ms → ~400 samples.
	if res.End != 2*time.Second {
		t.Errorf("default RunFor: end = %v", res.End)
	}
	if got := len(res.Trace.Rec.Samples(1)); got < 350 || got > 450 {
		t.Errorf("default sampling produced %d samples", got)
	}
}

func TestProbeOfPicksUpInterfaces(t *testing.T) {
	s := fdtest.NewScripted(2, 3)
	probe := check.ProbeOf(s)
	if probe.Suspected == nil || probe.Trusted == nil {
		t.Fatal("ProbeOf missed interfaces on a full ◇C detector")
	}
	if probe.Trusted() != 2 || !probe.Suspected().Has(3) {
		t.Error("probe functions wrong")
	}
	// A leader-only module yields only a Trusted probe.
	probe = check.ProbeOf(leaderOnly{})
	if probe.Trusted == nil || probe.Suspected != nil {
		t.Error("ProbeOf wrong for leader-only module")
	}
	// A non-detector yields an empty probe.
	probe = check.ProbeOf(42)
	if probe.Trusted != nil || probe.Suspected != nil {
		t.Error("ProbeOf invented probes for a non-detector")
	}
}

type leaderOnly struct{}

func (leaderOnly) Trusted() dsys.ProcessID { return 1 }

var _ fd.LeaderOracle = leaderOnly{}

func TestPartialSyncHelper(t *testing.T) {
	net := fdlab.PartialSync(100*time.Millisecond, 10*time.Millisecond)
	ps, ok := net.(network.PartiallySynchronous)
	if !ok || ps.GST != 100*time.Millisecond || ps.Delta != 10*time.Millisecond {
		t.Errorf("PartialSync = %#v", net)
	}
}

// subtest names a catalog stack's subtests. Four stacks had subtests before
// the catalog named them, and those keep their names.
func subtest(stack string) string {
	if old, ok := map[string]string{
		"leaderbeat": "omega-leaderbeat", "stable": "omega-stable",
		"gossip": "omega-fromsuspector", "amplified-neighbor": "amplify",
	}[stack]; ok {
		return old
	}
	return stack
}

// TestNanosecondPeriodDetectorsRun starts every catalog stack with a 1ns
// period: each check interval that defaults to Period/2 must clamp to 1ns
// (a tick loop needs a positive period) and the stacks must run.
func TestNanosecondPeriodDetectorsRun(t *testing.T) {
	for _, st := range fdlab.Stacks() {
		t.Run(subtest(st.Name), func(t *testing.T) {
			res := fdlab.Run(fdlab.Setup{
				N:           3,
				Seed:        1,
				Net:         network.Reliable{Latency: network.Fixed(time.Nanosecond)},
				Build:       st.Build(time.Nanosecond),
				SampleEvery: time.Microsecond,
				RunFor:      20 * time.Microsecond,
			})
			if got := len(res.Trace.Rec.Samples(1)); got < 10 {
				t.Errorf("p1 sampled %d times in 20µs", got)
			}
			if sent := len(res.Messages.Events()); sent == 0 {
				t.Error("no detector message was sent")
			}
		})
	}
}
