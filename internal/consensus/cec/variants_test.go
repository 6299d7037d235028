package cec_test

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
	"repro/internal/sim"
)

func TestMergedVariantDecidesStableDetector(t *testing.T) {
	c := fdtest.NewCluster(5, 1)
	res := conslab.Run(conslab.Setup{
		N:    5,
		Seed: 1,
		Run:  cecAlgo.Scripted(c),
		Opt:  consensus.Options{MergedPhase01: true},
	})
	if err := res.Verify(5); err != nil {
		t.Fatal(err)
	}
	if got := res.Log.MaxRound(); got != 1 {
		t.Errorf("decided in round %d, want 1", got)
	}
	// No coordinator announcements must exist in the merged variant.
	if got := res.Messages.Sent(cec.KindCoord); got != 0 {
		t.Errorf("%d coordinator announcements sent, want 0", got)
	}
	// Every process sends an estimate (real or null) to everyone: n² per
	// round — the trade-off of Section 5.4.
	if got := res.Messages.Sent(cec.KindEst); got < 25 {
		t.Errorf("%d estimate messages, want at least n²=25", got)
	}
}

func TestMergedVariantSurvivesLeaderChange(t *testing.T) {
	// Everyone trusts p3 which trusts p1: nobody self-trusts, so no
	// proposition can be made. Processes must re-read their detector inside
	// Phase 3 to follow trust to p2 after the script flips it.
	c := fdtest.NewCluster(5, 3)
	c.At(3).SetTrusted(1)
	res := conslab.Run(conslab.Setup{
		N:    5,
		Seed: 2,
		Run:  cecAlgo.Scripted(c),
		Opt:  consensus.Options{MergedPhase01: true},
		Before: func(k *sim.Kernel) {
			k.ScheduleFunc(100*time.Millisecond, func(time.Duration) {
				c.SetTrustedEverywhere(2)
			})
		},
	})
	if err := res.Verify(5); err != nil {
		t.Fatal(err)
	}
}

func TestMergedVariantWithCrashes(t *testing.T) {
	c := fdtest.NewCluster(5, 1)
	res := conslab.Run(conslab.Setup{
		N:    5,
		Seed: 3,
		Crashes: map[dsys.ProcessID]time.Duration{
			4: 5 * time.Millisecond,
			5: 8 * time.Millisecond,
		},
		Run: cecAlgo.Scripted(c),
		Opt: consensus.Options{MergedPhase01: true},
		Before: func(k *sim.Kernel) {
			// The scripted detector must deliver completeness by hand.
			k.ScheduleFunc(50*time.Millisecond, func(time.Duration) {
				c.SuspectEverywhere(4, 5)
			})
		},
	})
	if err := res.Verify(5); err != nil {
		t.Fatal(err)
	}
}

func TestFirstMajorityCutoffLosesRoundsToNacks(t *testing.T) {
	// Ablation (DESIGN.md decision 3): with CT-style first-majority
	// semantics, the two PERMANENT nackers can kill round 1 — and since the
	// leader never changes, every subsequent round fails identically, so
	// the cutoff variant may never terminate at all. The paper's wait rule
	// decides in round 1 every time. Termination is therefore only required
	// of the non-cutoff runs; the cutoff runs are checked for safety and
	// counted.
	lostWithCutoff, lostWithRule := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		for _, cutoff := range []bool{false, true} {
			c := fdtest.NewCluster(5, 1)
			c.At(4).Suspect(1)
			c.At(5).Suspect(1)
			res := conslab.Run(conslab.Setup{
				N:      5,
				Seed:   seed,
				Net:    network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 5 * time.Millisecond}},
				Run:    cecAlgo.Scripted(c),
				Opt:    consensus.Options{FirstMajorityCutoff: cutoff},
				RunFor: 2 * time.Second,
			})
			if !cutoff {
				if err := res.Verify(5); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Log.MaxRound() > 1 {
					lostWithRule++
				}
				continue
			}
			// Cutoff runs: safety only, and count lost rounds / lost runs.
			var ref any
			for _, id := range dsys.Pids(5) {
				if d, ok := res.Log.Decided(id); ok {
					if ref == nil {
						ref = d.Value
					} else if d.Value != ref {
						t.Fatalf("seed %d: agreement violated under cutoff", seed)
					}
				}
			}
			if res.Log.DecidedCount() < 5 || res.Log.MaxRound() > 1 {
				lostWithCutoff++
			}
		}
	}
	if lostWithRule != 0 {
		t.Errorf("the paper's wait rule lost %d rounds; it should always decide in round 1", lostWithRule)
	}
	if lostWithCutoff == 0 {
		t.Error("the first-majority cutoff never lost a round; ablation shows nothing")
	}
}
