// Quickstart: five simulated processes run the paper's ◇C failure detector
// (the ring construction of Section 3) and solve Uniform Consensus with the
// ◇C algorithm of Figs. 3–4 — once before and once after the elected leader
// crashes.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/dsys"
	"repro/internal/fd/ring"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/sim"
)

func main() {
	const n = 5
	// A partially synchronous network: chaotic until GST=100ms, then every
	// message arrives within Δ=8ms.
	k := sim.New(sim.Config{
		N:       n,
		Network: network.PartiallySynchronous{GST: 100 * time.Millisecond, Delta: 8 * time.Millisecond},
		Seed:    7,
	})

	type done struct {
		id    dsys.ProcessID
		inst  string
		value any
		round int
		at    time.Duration
	}
	var decisions []done

	for _, id := range dsys.Pids(n) {
		// Each process runs one step task: its first step attaches a ◇C
		// detector module and a reliable broadcast module and proposes the
		// process's own value; when that instance has decided the task sleeps
		// 300ms, and then it runs a second instance. On the simulator a task
		// waits by returning a dsys.Wait from its step, so a proposal is
		// stepped, not called.
		var det *ring.Detector
		var rb *rbcast.Module
		var pr *cec.Proposal
		inst, sleeping := 0, false // the instance running (1 or 2), and the pause between them
		k.SpawnStep(id, "main", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
			switch {
			case inst == 0:
				det = ring.Start(p, ring.Options{})
				rb = rbcast.Start(p)
				inst = 1
				pr = cec.NewProposal(det, rb, fmt.Sprintf("value-of-%v", id), consensus.Options{Instance: "demo-1"})
			case sleeping:
				// Second instance, after p1 (the initial leader) has crashed:
				// the detector elects p2 and consensus still completes.
				inst, sleeping = 2, false
				pr = cec.NewProposal(det, rb, fmt.Sprintf("second-%v", id), consensus.Options{Instance: "demo-2"})
			}
			if w := pr.Step(p, m); !w.Done() {
				return w
			}
			res, _ := pr.Result()
			decisions = append(decisions, done{id, fmt.Sprintf("demo-%d", inst), res.Value, res.Round, res.At})
			if inst == 2 {
				return dsys.Finished
			}
			sleeping = true
			return dsys.Sleep(300 * time.Millisecond)
		})
	}

	// Crash the initial leader between the two instances.
	k.CrashAt(1, 200*time.Millisecond)
	k.Run(5 * time.Second)

	fmt.Println("quickstart: ◇C consensus over the ring detector (p1 crashes at 200ms)")
	for _, d := range decisions {
		fmt.Printf("  %-6s %v decided %-12v in round %d at %v\n", d.inst, d.id, d.value, d.round, d.at)
	}
}
