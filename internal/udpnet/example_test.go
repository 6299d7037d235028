package udpnet_test

import (
	"time"

	"repro/internal/live"
	"repro/internal/netfault"
	"repro/internal/trace"
	"repro/internal/udpnet"
)

// ExampleTransport is the README's datagram snippet, compiled so the
// documented shape cannot drift: an all-UDP cluster is a live cluster whose
// Transport is a udpnet.Transport, and the datagram-only fault knobs sit
// beside the shared netfault.Knobs.
func ExampleTransport() {
	col := &trace.Collector{}
	faults := &udpnet.Faults{
		Knobs:         netfault.Knobs{Seed: 7, DropP: 0.2, DupP: 0.2},
		ReorderP:      0.3, // extra delay in (0, ReorderWindow]
		ReorderWindow: 30 * time.Millisecond,
		Jitter:        5 * time.Millisecond, // uniform per-datagram delay
	}
	tr, err := udpnet.NewTransport(udpnet.Config{N: 4, Trace: col, Faults: faults})
	if err != nil {
		panic(err)
	}
	cluster := live.NewCluster(live.Config{N: 4, Trace: col, Transport: tr})
	defer cluster.Stop()
	faults.SetDelay(1, 2, 300*time.Millisecond) // asymmetric: only 1→2 lags
	tr.Rebind()                                 // close + re-bind every socket
}
