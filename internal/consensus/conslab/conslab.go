// Package conslab is the shared scaffolding for consensus experiments and
// integration tests: it wires n simulated processes, gives each a reliable
// broadcast module and a proposal, runs one consensus algorithm per process,
// records proposals and decisions in a check.ConsensusLog, and injects
// crashes and detector scripting.
package conslab

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Runner prepares one consensus algorithm's run at one process and returns
// it as a Proposal, not yet stepped. Implementations typically construct the
// process's failure detector on p (or capture a scripted one) and call the
// algorithm's NewProposal.
type Runner func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal

// Setup describes one consensus run.
type Setup struct {
	// N is the number of processes.
	N int
	// Seed drives all randomness.
	Seed int64
	// Net is the link model (default: reliable 1ms links).
	Net network.Network
	// Crashes maps processes to crash times.
	Crashes map[dsys.ProcessID]time.Duration
	// Proposals maps processes to proposals (default "v<id>").
	Proposals map[dsys.ProcessID]any
	// Run is the per-process algorithm. Required.
	Run Runner
	// Opt is passed to every Propose call.
	Opt consensus.Options
	// RunFor bounds the run in virtual time (default 30s).
	RunFor time.Duration
	// Before, if set, is called with the kernel before the run starts, for
	// scheduling detector scripting or extra instrumentation.
	Before func(k *sim.Kernel)
}

// Result is a completed consensus run.
type Result struct {
	Log      *check.ConsensusLog
	Messages *trace.Collector
	End      time.Duration
	Crashed  map[dsys.ProcessID]time.Duration
}

// Verify checks the Uniform Consensus properties over the run.
func (r Result) Verify(n int) error { return r.Log.Verify(n, r.Crashed) }

// Run executes the setup.
func Run(s Setup) Result {
	if s.Net == nil {
		s.Net = network.Reliable{Latency: network.Fixed(time.Millisecond)}
	}
	if s.RunFor <= 0 {
		s.RunFor = 30 * time.Second
	}
	col := trace.NewCollector()
	k := sim.New(sim.Config{N: s.N, Network: s.Net, Seed: s.Seed, Trace: col})
	log := check.NewConsensusLog()
	for _, id := range dsys.Pids(s.N) {
		id := id
		v, ok := s.Proposals[id]
		if !ok {
			v = fmt.Sprintf("v%d", id)
		}
		// One step task per process. Its first step starts the reliable
		// broadcast, records the proposal and builds the run, and steps the
		// run in the same turn, so the time-0 sends keep their order; the
		// decision is recorded when the run finishes.
		var pr consensus.Proposal
		k.SpawnStep(id, "consensus", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
			if pr == nil {
				rb := rbcast.Start(p)
				log.Propose(id, v)
				pr = s.Run(p, rb, v, s.Opt)
			}
			w := pr.Step(p, m)
			if w.Done() {
				res, _ := pr.Result()
				log.Decide(id, res.Value, res.At, res.Round)
			}
			return w
		})
	}
	for id, at := range s.Crashes {
		k.CrashAt(id, at)
	}
	if s.Before != nil {
		s.Before(k)
	}
	end := k.Run(s.RunFor)
	return Result{Log: log, Messages: col, End: end, Crashed: col.Crashed()}
}

// Successive runs two instances back to back on one task: first, then —
// starting in the step where first finishes — the Proposal next builds from
// first's decision. Its Result is first's, once both have finished.
func Successive(first consensus.Proposal, next func(consensus.Result) consensus.Proposal) consensus.Proposal {
	return &successive{cur: first, next: next}
}

type successive struct {
	cur   consensus.Proposal
	next  func(consensus.Result) consensus.Proposal
	first consensus.Result
}

func (s *successive) Step(p dsys.Proc, m *dsys.Message) dsys.Wait {
	w := s.cur.Step(p, m)
	if !w.Done() || s.next == nil {
		return w
	}
	s.first, _ = s.cur.Result()
	s.cur, s.next = s.next(s.first), nil
	return s.cur.Step(p, nil)
}

func (s *successive) Result() (consensus.Result, bool) {
	if _, ok := s.cur.Result(); !ok || s.next != nil {
		return consensus.Result{}, false
	}
	return s.first, true
}
