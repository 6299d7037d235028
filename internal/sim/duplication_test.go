package sim_test

import (
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestDuplicatingNetworkDeliversCopies(t *testing.T) {
	col := trace.NewCollector()
	k := sim.New(sim.Config{
		N:       2,
		Network: network.Duplicating{P: 1.0, MaxCopies: 3, Under: network.Reliable{Latency: network.Fixed(time.Millisecond)}},
		Seed:    1,
		Trace:   col,
	})
	received := 0
	k.Spawn(1, "send", func(p dsys.Proc) {
		for i := 0; i < 10; i++ {
			p.Send(2, "m", i)
		}
	})
	k.SpawnRecvLoop(2, "recv", func(dsys.Proc, *dsys.Message) { received++ }, "m")
	k.Run(time.Second)
	if received != 30 {
		t.Errorf("received %d copies, want exactly 30 (P=1, MaxCopies=3)", received)
	}
	if col.Sent("m") != 10 {
		t.Errorf("sent count %d should reflect logical messages, not copies", col.Sent("m"))
	}
}

func TestDuplicatingZeroProbabilityIsSingleCopy(t *testing.T) {
	k := sim.New(sim.Config{
		N:       2,
		Network: network.Duplicating{P: 0, Under: network.Reliable{Latency: network.Fixed(time.Millisecond)}},
		Seed:    2,
	})
	received := 0
	k.Spawn(1, "send", func(p dsys.Proc) {
		for i := 0; i < 20; i++ {
			p.Send(2, "m", i)
		}
	})
	k.SpawnRecvLoop(2, "recv", func(dsys.Proc, *dsys.Message) { received++ }, "m")
	k.Run(time.Second)
	if received != 20 {
		t.Errorf("received %d, want 20", received)
	}
}

func TestSelfSendBypassesDuplication(t *testing.T) {
	k := sim.New(sim.Config{
		N:       1,
		Network: network.Duplicating{P: 1.0, MaxCopies: 5, Under: network.Reliable{Latency: network.Fixed(time.Millisecond)}},
		Seed:    3,
	})
	received := 0
	k.Spawn(1, "self", func(p dsys.Proc) {
		p.Send(1, "m", nil)
		dsys.SpawnRecvLoop(p, "recv", func(dsys.Proc, *dsys.Message) { received++ }, "m")
	})
	k.Run(100 * time.Millisecond)
	if received != 1 {
		t.Errorf("self-send delivered %d times, want 1", received)
	}
}
