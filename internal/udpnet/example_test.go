package udpnet_test

import (
	"time"

	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/trace"
	"repro/internal/udpnet"
)

// ExampleTransport is the README's datagram snippet, compiled so the
// documented shape cannot drift: an all-UDP cluster is a live cluster whose
// Transport is a udpnet.Transport. Loss, duplication, jitter and asymmetric
// delay are the cluster's network model, the same one the simulator runs;
// reordering is the transport's own knob.
func ExampleTransport() {
	col := &trace.Collector{}
	tr, err := udpnet.NewTransport(udpnet.Config{N: 4, Trace: col, Seed: 7,
		ReorderP:      0.3, // extra delay of 1ms plus [0, ReorderWindow)
		ReorderWindow: 30 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	jittery := network.Reliable{Latency: network.Uniform{Max: 5 * time.Millisecond}}
	model := network.PerLink{
		Default: network.Duplicating{P: 0.2, MaxCopies: 2, Under: network.FairLossy{P: 0.2, Under: jittery}},
		Links: map[network.LinkKey]network.Network{ // asymmetric: only 1→2 lags
			{From: 1, To: 2}: network.Reliable{Latency: network.Fixed(300 * time.Millisecond)},
		},
	}
	cluster := live.NewCluster(live.Config{N: 4, Network: model, Seed: 7, Trace: col, Transport: tr})
	defer cluster.Stop()
	tr.Rebind() // close + re-bind every socket
}
