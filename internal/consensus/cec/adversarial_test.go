package cec_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
	"repro/internal/sim"
)

// mutateRandomly rewires every scripted detector with random trusted
// processes and random suspect sets, drawn from rng.
func mutateRandomly(c *fdtest.Cluster, rng *rand.Rand, n int) {
	for _, id := range dsys.Pids(n) {
		c.At(id).SetTrusted(dsys.ProcessID(rng.Intn(n) + 1))
		var susp []dsys.ProcessID
		for _, q := range dsys.Pids(n) {
			if rng.Intn(3) == 0 {
				susp = append(susp, q)
			}
		}
		c.At(id).SetSuspected(susp...)
	}
}

// TestSafetyUnderAdversarialDetectors is the property test behind Theorem
// 2's safety half: uniform agreement, integrity and validity must hold for
// ANY failure-detector behaviour — here the detector output is re-randomized
// every few milliseconds for the whole run, with random crashes and random
// link latencies on top. Termination is deliberately not asserted (a
// detector violating ◇C's properties voids the liveness guarantee).
func TestSafetyUnderAdversarialDetectors(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		n := 4 + int(seed%3) // n ∈ {4,5,6}
		c := fdtest.NewCluster(n, 1)
		rng := rand.New(rand.NewSource(seed * 977))
		crashes := map[dsys.ProcessID]time.Duration{}
		f := int(seed) % (dsys.MaxFaulty(n) + 1)
		for i := 0; i < f; i++ {
			id := dsys.ProcessID(rng.Intn(n) + 1)
			crashes[id] = time.Duration(rng.Intn(200)) * time.Millisecond
		}
		res := conslab.Run(conslab.Setup{
			N:       n,
			Seed:    seed,
			Net:     network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 12 * time.Millisecond}},
			Crashes: crashes,
			Run:     cecAlgo.Scripted(c),
			RunFor:  time.Second,
			Before: func(k *sim.Kernel) {
				k.Every(5*time.Millisecond, 5*time.Millisecond, func(time.Duration) {
					mutateRandomly(c, rng, n)
				})
			},
		})
		// Safety-only verification across whoever decided.
		var ref any
		for _, id := range dsys.Pids(n) {
			d, ok := res.Log.Decided(id)
			if !ok {
				continue
			}
			if ref == nil {
				ref = d.Value
			} else if d.Value != ref {
				t.Fatalf("seed %d: uniform agreement violated: %v vs %v", seed, d.Value, ref)
			}
			// Validity: the value must be someone's proposal ("v1".."vn").
			valid := false
			for _, q := range dsys.Pids(n) {
				if d.Value == "v"+q.String()[1:] {
					valid = true
				}
			}
			if !valid {
				t.Fatalf("seed %d: validity violated: decided %v", seed, d.Value)
			}
		}
	}
}

// TestSafetyUnderAdversarialDetectorsMerged repeats the property test for
// the merged-phase variant, whose Phase 3 has extra escape paths.
func TestSafetyUnderAdversarialDetectorsMerged(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		n := 5
		c := fdtest.NewCluster(n, 1)
		rng := rand.New(rand.NewSource(seed*131 + 7))
		res := conslab.Run(conslab.Setup{
			N:      n,
			Seed:   seed,
			Net:    network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond}},
			Run:    cecAlgo.Scripted(c),
			Opt:    consensus.Options{MergedPhase01: true},
			RunFor: time.Second,
			Before: func(k *sim.Kernel) {
				k.Every(4*time.Millisecond, 4*time.Millisecond, func(time.Duration) {
					mutateRandomly(c, rng, n)
				})
			},
		})
		var ref any
		for _, id := range dsys.Pids(n) {
			if d, ok := res.Log.Decided(id); ok {
				if ref == nil {
					ref = d.Value
				} else if d.Value != ref {
					t.Fatalf("seed %d: merged-variant agreement violated: %v vs %v", seed, d.Value, ref)
				}
			}
		}
	}
}

// TestEventualStabilizationRecoversLiveness complements the adversarial
// safety test: after the chaos stops and the detector becomes (and stays)
// ◇C-correct, every correct process decides.
func TestEventualStabilizationRecoversLiveness(t *testing.T) {
	n := 5
	c := fdtest.NewCluster(n, 1)
	rng := rand.New(rand.NewSource(99))
	res := conslab.Run(conslab.Setup{
		N:      n,
		Seed:   99,
		Net:    network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond}},
		Run:    cecAlgo.Scripted(c),
		RunFor: 10 * time.Second,
		Before: func(k *sim.Kernel) {
			k.Every(5*time.Millisecond, 5*time.Millisecond, func(now time.Duration) {
				if now < 400*time.Millisecond {
					mutateRandomly(c, rng, n)
				} else if now < 410*time.Millisecond {
					c.SetTrustedEverywhere(3)
					for _, id := range dsys.Pids(n) {
						c.At(id).SetSuspected()
					}
				}
			})
		},
	})
	if err := res.Verify(n); err != nil {
		t.Fatal(err)
	}
	d, _ := res.Log.Decided(1)
	if d.At > 1500*time.Millisecond {
		t.Errorf("decision took until %v despite stabilization at 400ms", d.At)
	}
}
