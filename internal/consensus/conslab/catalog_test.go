package conslab_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/live"
	"repro/internal/rbcast"
)

// countSteps wraps a Runner so that each Proposal counts its steps.
type countSteps struct {
	consensus.Proposal
	steps int
}

func (c *countSteps) Step(p dsys.Proc, m *dsys.Message) dsys.Wait {
	c.steps++
	return c.Proposal.Step(p, m)
}

// TestPreDecidedFinishesInFirstStep: a PreDecided that already reports
// (v, r) makes every algorithm adopt exactly that decision in its first
// step and send none of its protocol messages.
func TestPreDecidedFinishesInFirstStep(t *testing.T) {
	const n = 3
	for _, a := range conslab.Algorithms() {
		t.Run(a.Name, func(t *testing.T) {
			run := a.Scripted(fdtest.NewCluster(n, 1))
			var props []*countSteps
			res := conslab.Run(conslab.Setup{
				N:    n,
				Seed: 1,
				Opt:  consensus.Options{PreDecided: func() (any, int, bool) { return "pre", 7, true }},
				Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal {
					c := &countSteps{Proposal: run(p, rb, v, opt)}
					props = append(props, c)
					return c
				},
				RunFor: time.Second,
			})
			for _, id := range dsys.Pids(n) {
				d, ok := res.Log.Decided(id)
				if !ok || d.Value != "pre" || d.Round != 7 || d.At != 0 {
					t.Errorf("%v decided %+v (ok=%v), want pre in round 7 at 0", id, d, ok)
				}
			}
			for i, c := range props {
				if c.steps != 1 {
					t.Errorf("proposal %d took %d steps, want 1", i, c.steps)
				}
			}
			for _, e := range res.Messages.Events() {
				if slices.Contains(a.Kinds, e.Kind) {
					t.Errorf("sent %s from %v to %v", e.Kind, e.From, e.To)
				}
			}
		})
	}
}

// TestAlgorithmsOnLiveRuntime runs each algorithm as step tasks on the
// goroutine runtime, where the R-delivery handler hands the decision over
// from the reliable-broadcast relay task's goroutine. With a stable detector
// every process must decide, on one proposed value.
func TestAlgorithmsOnLiveRuntime(t *testing.T) {
	const n = 5
	for _, a := range conslab.Algorithms() {
		t.Run(a.Name, func(t *testing.T) {
			c := live.NewCluster(live.Config{N: n, Seed: 1})
			defer c.Stop()
			run := a.Scripted(fdtest.NewCluster(n, 1))
			log := check.NewConsensusLog()
			decided := make(chan dsys.ProcessID, n)
			for _, id := range dsys.Pids(n) {
				v := fmt.Sprintf("v%d", id)
				log.Propose(id, v)
				c.Spawn(id, "main", func(p dsys.Proc) {
					pr := run(p, rbcast.Start(p), v, consensus.Options{})
					dsys.SpawnStep(p, "consensus", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
						w := pr.Step(p, m)
						if w.Done() {
							res, _ := pr.Result()
							log.Decide(id, res.Value, res.At, res.Round)
							decided <- id
						}
						return w
					})
				})
			}
			for range n {
				select {
				case <-decided:
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of %d processes decided", log.DecidedCount(), n)
				}
			}
			if err := log.Verify(n, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}
