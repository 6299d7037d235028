package tcpnet_test

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/tcpnet"
	"repro/internal/trace"
)

// ExampleConfig is the README's fault-injection snippet, compiled so the
// documented shape cannot drift: loss, duplication and a partition switched
// at run time are one network model, the same one the simulator runs;
// ResetP is the stream's own fault.
func ExampleConfig() {
	col := &trace.Collector{}
	var cut atomic.Bool // cut p1<->p3 while set
	link := network.Func(func(from, to dsys.ProcessID, _ string, _ time.Duration, _ *rand.Rand) (time.Duration, bool) {
		return 0, cut.Load() && from*to == 3
	})
	model := network.Duplicating{P: 0.01, MaxCopies: 2, Under: network.FairLossy{P: 0.05, Under: link}}
	mesh, err := tcpnet.New(tcpnet.Config{N: 5, Trace: col, Network: model, Seed: 1, ResetP: 0.005})
	if err != nil {
		panic(err)
	}
	defer mesh.Stop()
	cut.Store(true)   // partition until cut.Store(false)
	mesh.ResetConns() // tear down every connection; writers redial
}
