package tcpnet_test

import (
	"repro/internal/netfault"
	"repro/internal/tcpnet"
	"repro/internal/trace"
)

// ExampleFaults is the README's fault-injection snippet, compiled so the
// documented shape cannot drift: the shared knobs go in netfault.Knobs (Go
// does not accept promoted fields in a composite literal), ResetP is
// stream-only.
func ExampleFaults() {
	col := &trace.Collector{}
	faults := &tcpnet.Faults{Knobs: netfault.Knobs{DropP: 0.05, DupP: 0.01}, ResetP: 0.005}
	mesh, err := tcpnet.New(tcpnet.Config{N: 5, Trace: col, Faults: faults})
	if err != nil {
		panic(err)
	}
	defer mesh.Stop()
	faults.Partition(1, 3) // cut p1<->p3 until Heal/HealAll
	mesh.ResetConns()      // tear down every connection; writers redial
}
