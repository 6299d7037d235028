package cec_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/ring"
	"repro/internal/network"
	"repro/internal/rbcast"
)

// TestConsensusOverFairLossyLinks goes beyond the paper's reliable-link
// model: every link drops 15% of messages, forever. The detector's adaptive
// timeouts absorb the flapping, and the catch-up machinery (idle
// retransmission + decided-responders) replaces the lost protocol and
// decision messages, so Uniform Consensus still terminates with all
// properties intact.
func TestConsensusOverFairLossyLinks(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		net := network.FairLossy{
			P:     0.15,
			Under: network.PartiallySynchronous{GST: 0, Delta: 8 * time.Millisecond},
		}
		crashes := map[dsys.ProcessID]time.Duration{}
		if seed%2 == 1 {
			crashes[dsys.ProcessID(seed%5+1)] = time.Duration(20+seed*9) * time.Millisecond
		}
		res := conslab.Run(conslab.Setup{
			N:       5,
			Seed:    seed,
			Net:     net,
			Crashes: crashes,
			Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
				return cec.Propose(p, ring.Start(p, ring.Options{}), rb, v, opt)
			},
			RunFor: 60 * time.Second,
		})
		if err := res.Verify(5); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestHeavyLossEventuallyDecides pushes loss to 40%: slower, but the
// retransmission machinery must still get everyone to a decision.
func TestHeavyLossEventuallyDecides(t *testing.T) {
	net := network.FairLossy{
		P:     0.4,
		Under: network.PartiallySynchronous{GST: 0, Delta: 8 * time.Millisecond},
	}
	res := conslab.Run(conslab.Setup{
		N:    5,
		Seed: 77,
		Net:  net,
		Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
			return cec.Propose(p, ring.Start(p, ring.Options{}), rb, v, opt)
		},
		RunFor: 120 * time.Second,
	})
	if err := res.Verify(5); err != nil {
		t.Fatal(err)
	}
}

// TestSingleLostMessageRepaired loses exactly one phase message between the
// coordinator p1 and the participant p2 whose reply the round cannot do
// without (n = 4, p3 crashed and suspected, so p1, p2 and p4 are the
// majority) and requires the idle-retransmission machinery to repair it. One
// retransmission cycle is ProbeAfter × Poll = 400 ms here. The bound is 25
// cycles, not one: a retransmitted phase message resets its receiver's idle
// counter just as a fresh one does, so two processes retransmitting at each
// other with the same period can put each other's resend off for several
// cycles — with these jittered links the worst of 200 seeds takes 11 (a lost
// estimate, seed 96) where fixed links take at most 2. That slow repair is
// the one lead found for tcpnet's TestChaosSoakMesh having failed once in
// ~40 full-suite runs; tightening this bound is the test for a fix.
func TestSingleLostMessageRepaired(t *testing.T) {
	const n, cycle = 4, 400 * time.Millisecond
	for _, lost := range []string{cec.KindCoord, cec.KindEst, cec.KindProp, cec.KindAck} {
		for seed := int64(0); seed < 200; seed++ {
			c := fdtest.NewCluster(n, 1)
			c.SuspectEverywhere(3)
			dropped := false
			net := network.Func(func(from, to dsys.ProcessID, kind string, _ time.Duration, rng *rand.Rand) (time.Duration, bool) {
				if !dropped && kind == lost && (from == 1 && to == 2 || from == 2 && to == 1) {
					dropped = true
					return 0, true
				}
				return 50*time.Microsecond + time.Duration(rng.Int63n(int64(350*time.Microsecond))), false
			})
			res := conslab.Run(conslab.Setup{
				N: n, Seed: seed, Net: net,
				Crashes: map[dsys.ProcessID]time.Duration{3: 0},
				Opt:     consensus.Options{Poll: 2 * time.Millisecond},
				Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
					p.Sleep(time.Duration(p.Rand().Int63n(int64(3 * time.Millisecond))))
					return cec.Propose(p, c.At(p.ID()), rb, v, opt)
				},
				RunFor: 60 * time.Second,
			})
			if err := res.Verify(n); err != nil {
				t.Fatalf("lost %s, seed %d: %v", lost, seed, err)
			}
			if !dropped {
				t.Fatalf("lost %s, seed %d: the message was never sent", lost, seed)
			}
			if at := res.Log.LastDecisionAt(); at > 25*cycle {
				t.Errorf("lost %s, seed %d: decided only at %v (%d cycles)", lost, seed, at, at/cycle)
			}
		}
	}
}
