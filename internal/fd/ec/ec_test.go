package ec_test

import (
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/ec"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/fdtest"
)

func TestFromLeaderSuspectsEveryoneElse(t *testing.T) {
	d := ec.FromLeader{L: fdtest.NewScripted(3), N: 5}
	if d.Trusted() != 3 {
		t.Errorf("Trusted() = %v", d.Trusted())
	}
	want := fd.NewSet(1, 2, 4, 5)
	if got := d.Suspected(); !got.Equal(want) {
		t.Errorf("Suspected() = %v, want %v", got, want)
	}
}

func TestFromLeaderTracksLeaderChanges(t *testing.T) {
	s := fdtest.NewScripted(1)
	d := ec.FromLeader{L: s, N: 3}
	s.SetTrusted(2)
	if d.Trusted() != 2 || d.Suspected().Has(2) || !d.Suspected().Has(1) {
		t.Error("adapter did not follow the oracle")
	}
}

func TestFromPerfectTrustsFirstNonSuspected(t *testing.T) {
	s := fdtest.NewScripted(dsys.None, 1, 2)
	d := ec.FromPerfect{S: s, N: 4}
	if d.Trusted() != 3 {
		t.Errorf("Trusted() = %v, want p3", d.Trusted())
	}
	if !d.Suspected().Equal(fd.NewSet(1, 2)) {
		t.Errorf("Suspected() = %v", d.Suspected())
	}
	s.SetSuspected()
	if d.Trusted() != 1 {
		t.Errorf("Trusted() = %v, want p1 after retraction", d.Trusted())
	}
}

func TestComposeWithholdsTrustedFromSuspects(t *testing.T) {
	s := fdtest.NewScripted(dsys.None, 2, 3)
	l := fdtest.NewScripted(3)
	d := ec.Compose{S: s, L: l}
	if d.Trusted() != 3 {
		t.Errorf("Trusted() = %v", d.Trusted())
	}
	got := d.Suspected()
	if got.Has(3) {
		t.Error("◇C consistency violated: trusted process reported suspected")
	}
	if !got.Has(2) {
		t.Error("unrelated suspicion lost")
	}
}

func TestComposeWithNoLeaderYet(t *testing.T) {
	s := fdtest.NewScripted(dsys.None, 1)
	l := fdtest.NewScripted(dsys.None)
	d := ec.Compose{S: s, L: l}
	if d.Trusted() != dsys.None {
		t.Errorf("Trusted() = %v", d.Trusted())
	}
	if !d.Suspected().Equal(fd.NewSet(1)) {
		t.Errorf("Suspected() = %v", d.Suspected())
	}
}

// Integration: ◇P (heartbeat) + first-non-suspected = ◇C end to end.
func TestFromPerfectOverHeartbeatIsEventuallyConsistent(t *testing.T) {
	res := fdlab.Run(fdlab.Setup{
		N:    5,
		Seed: 1,
		Net:  fdlab.PartialSync(100*time.Millisecond, 10*time.Millisecond),
		Crashes: map[dsys.ProcessID]time.Duration{
			1: 300 * time.Millisecond,
		},
		Build:  fdlab.MustStack("from-perfect").Build(0),
		RunFor: 3 * time.Second,
	})
	v := res.Trace.EventuallyConsistent()
	if !v.Holds {
		t.Fatal("◇C properties do not hold for FromPerfect over heartbeat")
	}
	if v.Witness != 2 {
		t.Errorf("leader = %v, want p2", v.Witness)
	}
}

// Integration: Ω (LeaderBeat) + suspect-everyone-else = ◇C with the poorest
// accuracy the class allows.
func TestFromLeaderOverOmegaIsEventuallyConsistent(t *testing.T) {
	res := fdlab.Run(fdlab.Setup{
		N:    4,
		Seed: 2,
		Net:  fdlab.PartialSync(50*time.Millisecond, 10*time.Millisecond),
		Crashes: map[dsys.ProcessID]time.Duration{
			1: 200 * time.Millisecond,
		},
		Build:  fdlab.MustStack("from-leader").Build(0),
		RunFor: 3 * time.Second,
	})
	v := res.Trace.EventuallyConsistent()
	if !v.Holds || v.Witness != 2 {
		t.Fatalf("◇C verdict %+v, want leader p2", v)
	}
	// The paper's accuracy observation: this construction suspects all
	// correct processes but one, so eventual strong accuracy must FAIL
	// while eventual weak accuracy holds.
	if sa := res.Trace.EventualStrongAccuracy(); sa.Holds {
		t.Error("FromLeader unexpectedly achieved eventual strong accuracy")
	}
}
