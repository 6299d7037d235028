package cec_test

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/live"
	"repro/internal/rbcast"
)

// Three processes of the goroutine runtime run the paper's ◇C consensus,
// each calling Propose, the blocking driver, on its own task. With a stable
// detector — every process trusts p1 and suspects nobody — the decision
// lands in round 1 and is the leader's proposal. On the simulator the same
// instance runs as a step task: spawn NewProposal's Step with
// dsys.SpawnStep.
func ExamplePropose() {
	c := live.NewCluster(live.Config{N: 3})
	defer c.Stop()
	dets := fdtest.NewCluster(3, 1)
	decided := make(chan consensus.Result, 3)
	for _, id := range dsys.Pids(3) {
		c.Spawn(id, "main", func(p dsys.Proc) {
			rb := rbcast.Start(p)
			decided <- cec.Propose(p, dets.At(id), rb, fmt.Sprintf("proposal-%v", id), consensus.Options{})
		})
	}
	for range 3 {
		select {
		case res := <-decided:
			fmt.Printf("decided %v in round %d\n", res.Value, res.Round)
		case <-time.After(10 * time.Second):
			fmt.Println("no decision")
			return
		}
	}
	// Output:
	// decided proposal-p1 in round 1
	// decided proposal-p1 in round 1
	// decided proposal-p1 in round 1
}
