package cec_test

import (
	"testing"
	"time"

	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestConsensusTolaratesDuplicatedMessages runs the full stack under a
// network that duplicates 40% of messages (up to 3 copies): the protocols'
// per-sender deduplication must keep all Uniform Consensus properties
// intact. This goes beyond the paper's reliable-link model — a robustness
// check for deployments on at-least-once transports.
func TestConsensusToleratesDuplicatedMessages(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		net := network.Duplicating{
			P:         0.4,
			MaxCopies: 3,
			Under:     network.PartiallySynchronous{GST: 30 * time.Millisecond, Delta: 8 * time.Millisecond},
		}
		crashes := map[dsys.ProcessID]time.Duration{}
		if seed%2 == 0 {
			crashes[dsys.ProcessID(seed%5+1)] = time.Duration(10+seed*7) * time.Millisecond
		}
		res := conslab.Run(conslab.Setup{
			N:       5,
			Seed:    seed,
			Net:     net,
			Crashes: crashes,
			Run:     cecAlgo.Paired,
		})
		if err := res.Verify(5); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestReliableBroadcastDedupUnderDuplication verifies uniform integrity of
// rbcast specifically: even with every transport message duplicated, each
// broadcast is delivered exactly once per process.
func TestReliableBroadcastDedupUnderDuplication(t *testing.T) {
	k := sim.New(sim.Config{
		N:       4,
		Network: network.Duplicating{P: 1.0, MaxCopies: 3, Under: network.Reliable{Latency: network.Fixed(time.Millisecond)}},
		Seed:    1,
		Trace:   trace.NewCollector(),
	})
	deliveries := make(map[dsys.ProcessID]int)
	for _, id := range dsys.Pids(4) {
		id := id
		k.Spawn(id, "rb", func(p dsys.Proc) {
			m := rbcast.Start(p)
			m.OnDeliver(func(_ dsys.Proc, _ dsys.ProcessID, _ any) {
				deliveries[id]++
			})
			if id == 1 {
				for i := 0; i < 5; i++ {
					m.Broadcast(p, i)
				}
			}
		})
	}
	k.Run(time.Second)
	for _, id := range dsys.Pids(4) {
		if deliveries[id] != 5 {
			t.Errorf("%v delivered %d broadcasts, want exactly 5", id, deliveries[id])
		}
	}
}
