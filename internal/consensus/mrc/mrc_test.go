package mrc_test

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/conslab"
	"repro/internal/consensus/mrc"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/sim"
)

// mrcAlgo is mrc's catalog entry: Scripted runs it over a scripted detector
// cluster, Paired over a LeaderBeat Ω detector per process.
var mrcAlgo = conslab.MustAlgorithm("mrc")

func TestDecidesOneRoundUnderStableLeader(t *testing.T) {
	c := fdtest.NewCluster(5, 2)
	res := conslab.Run(conslab.Setup{N: 5, Seed: 1, Run: mrcAlgo.Scripted(c)})
	if err := res.Verify(5); err != nil {
		t.Fatal(err)
	}
	if got := res.Log.MaxRound(); got != 1 {
		t.Errorf("decided in round %d, want 1 under a stable leader", got)
	}
	d, _ := res.Log.Decided(4)
	if d.Value != "v2" {
		t.Errorf("decided %v, want the leader's estimate v2", d.Value)
	}
}

func TestDecidesWithRealOmega(t *testing.T) {
	res := conslab.Run(conslab.Setup{
		N:    5,
		Seed: 2,
		Net:  network.PartiallySynchronous{GST: 50 * time.Millisecond, Delta: 5 * time.Millisecond},
		Run:  mrcAlgo.Paired,
	})
	if err := res.Verify(5); err != nil {
		t.Fatal(err)
	}
}

func TestToleratesLeaderCrash(t *testing.T) {
	res := conslab.Run(conslab.Setup{
		N:    5,
		Seed: 3,
		Net:  network.PartiallySynchronous{GST: 0, Delta: 5 * time.Millisecond},
		Crashes: map[dsys.ProcessID]time.Duration{
			1: 10 * time.Millisecond, // LeaderBeat's first leader
		},
		Run: mrcAlgo.Paired,
	})
	if err := res.Verify(5); err != nil {
		t.Fatal(err)
	}
}

func TestToleratesMaxCrashes(t *testing.T) {
	res := conslab.Run(conslab.Setup{
		N:    5,
		Seed: 4,
		Net:  network.PartiallySynchronous{GST: 0, Delta: 5 * time.Millisecond},
		Crashes: map[dsys.ProcessID]time.Duration{
			1: 15 * time.Millisecond,
			3: 40 * time.Millisecond,
		},
		Run: mrcAlgo.Paired,
	})
	if err := res.Verify(5); err != nil {
		t.Fatal(err)
	}
}

func TestSplitLeaderViewsBlockButStaySafe(t *testing.T) {
	// 3 processes trust p1, 2 trust p2: p1 can be unanimously named only if
	// no p2-naming lands in a first majority. Disagreement costs rounds but
	// must never cost safety; after the script converges views, everyone
	// decides the same value.
	c := fdtest.NewCluster(5, 1)
	c.At(4).SetTrusted(2)
	c.At(5).SetTrusted(2)
	res := conslab.Run(conslab.Setup{
		N:    5,
		Seed: 5,
		Run:  mrcAlgo.Scripted(c),
		Before: func(k *sim.Kernel) {
			k.ScheduleFunc(200*time.Millisecond, func(time.Duration) {
				c.SetTrustedEverywhere(1)
			})
		},
	})
	if err := res.Verify(5); err != nil {
		t.Fatal(err)
	}
}

func TestBottomInFirstMajorityBlocksRound(t *testing.T) {
	// The weakness the paper attributes to MR (Section 5.4 last ¶): with a
	// single process whose leader view differs, a ⊥ can land inside the
	// first majority and block the round, even though a majority of
	// positive replies exists in the system. Check it actually happens for
	// some seed, and that safety holds throughout.
	sawBlock := false
	for seed := int64(0); seed < 12; seed++ {
		c := fdtest.NewCluster(5, 1)
		c.At(3).SetTrusted(3) // permanent dissenter
		props := make(map[dsys.ProcessID]*mrc.Proposal)
		res := conslab.Run(conslab.Setup{
			N:    5,
			Seed: seed,
			Net:  network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 5 * time.Millisecond}},
			Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal {
				props[p.ID()] = mrc.NewProposal(c.At(p.ID()), rb, v, opt)
				return props[p.ID()]
			},
		})
		if err := res.Verify(5); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, pr := range props {
			if pr.Stats().BlockedByBottom > 0 {
				sawBlock = true
			}
		}
		if res.Log.MaxRound() > 1 {
			sawBlock = true
		}
	}
	if !sawBlock {
		t.Error("a permanent dissenter never blocked an MR round across 12 seeds")
	}
}

func TestQuadraticMessagesPerRound(t *testing.T) {
	// Every phase opens with a broadcast: phase 1 and 3 are n→n, phase 2 is
	// n→n too (everyone announces proposal or no-proposal): 3n² per round.
	n := 6
	c := fdtest.NewCluster(n, 1)
	res := conslab.Run(conslab.Setup{N: n, Seed: 6, Run: mrcAlgo.Scripted(c)})
	if err := res.Verify(n); err != nil {
		t.Fatal(err)
	}
	round1 := res.Messages.Sent(mrc.KindLdr) + res.Messages.Sent(mrc.KindProp) + res.Messages.Sent(mrc.KindAck)
	want := 3 * n * n
	// Processes may start round 2 before the decision reaches them, so the
	// count is at least one full round and at most two.
	if round1 < want || round1 > 2*want {
		t.Errorf("%d protocol messages, want between %d (one round) and %d", round1, want, 2*want)
	}
}

func TestSuccessiveInstances(t *testing.T) {
	scripted := mrcAlgo.Scripted(fdtest.NewCluster(3, 1))
	second := make(map[dsys.ProcessID]consensus.Proposal)
	res := conslab.Run(conslab.Setup{
		N:    3,
		Seed: 7,
		Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal {
			return conslab.Successive(scripted(p, rb, v, consensus.Options{Instance: "a"}), func(consensus.Result) consensus.Proposal {
				second[p.ID()] = scripted(p, rb, v, consensus.Options{Instance: "b"})
				return second[p.ID()]
			})
		},
	})
	if err := res.Verify(3); err != nil {
		t.Fatal(err)
	}
	want, ok := second[1].Result()
	if !ok {
		t.Fatal("instance b never decided at p1")
	}
	for _, id := range dsys.Pids(3) {
		if got, _ := second[id].Result(); got.Value != want.Value {
			t.Errorf("instance b disagreement at %v", id)
		}
	}
}

func TestSoakManySeeds(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		n := 5
		crashes := map[dsys.ProcessID]time.Duration{}
		f := int(seed) % 3
		for i := 0; i < f; i++ {
			id := dsys.ProcessID((int(seed)*7+i*3)%n + 1)
			crashes[id] = time.Duration(5+30*i) * time.Millisecond
		}
		res := conslab.Run(conslab.Setup{
			N:       n,
			Seed:    seed,
			Net:     network.PartiallySynchronous{GST: 40 * time.Millisecond, Delta: 10 * time.Millisecond, PreGST: network.Uniform{Min: 0, Max: 50 * time.Millisecond}},
			Crashes: crashes,
			Run:     mrcAlgo.Paired,
		})
		if err := res.Verify(n); err != nil {
			t.Fatalf("seed %d (crashes %v): %v", seed, crashes, err)
		}
	}
}

func TestDeterministic(t *testing.T) {
	run := func() (int, int) {
		res := conslab.Run(conslab.Setup{
			N:       5,
			Seed:    42,
			Net:     network.PartiallySynchronous{GST: 30 * time.Millisecond, Delta: 8 * time.Millisecond},
			Crashes: map[dsys.ProcessID]time.Duration{2: 20 * time.Millisecond},
			Run:     mrcAlgo.Paired,
		})
		return res.Messages.TotalSent(), res.Log.MaxRound()
	}
	m1, r1 := run()
	m2, r2 := run()
	if m1 != m2 || r1 != r2 {
		t.Errorf("runs diverged: (%d,%d) vs (%d,%d)", m1, r1, m2, r2)
	}
}
