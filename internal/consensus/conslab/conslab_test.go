package conslab_test

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/rbcast"
	"repro/internal/sim"
)

// echo decides its own proposal after sleeping for wait — at once when wait
// is zero — which is enough to test the lab's bookkeeping without a real
// algorithm.
type echo struct {
	v    any
	wait time.Duration
	res  *consensus.Result
}

func (e *echo) Step(p dsys.Proc, _ *dsys.Message) dsys.Wait {
	if e.wait > 0 {
		w := e.wait
		e.wait = 0
		return dsys.Sleep(w)
	}
	e.res = &consensus.Result{Value: e.v, Round: 1, At: p.Now()}
	return dsys.Finished
}

func (e *echo) Result() (consensus.Result, bool) {
	if e.res == nil {
		return consensus.Result{}, false
	}
	return *e.res, true
}

func echoRunner(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal {
	return &echo{v: v}
}

func TestDefaultProposalsAndRecording(t *testing.T) {
	res := conslab.Run(conslab.Setup{N: 3, Seed: 1, Run: echoRunner})
	for _, id := range dsys.Pids(3) {
		d, ok := res.Log.Decided(id)
		if !ok {
			t.Fatalf("%v not recorded", id)
		}
		want := "v" + id.String()[1:]
		if d.Value != want {
			t.Errorf("%v decided %v, want %v", id, d.Value, want)
		}
	}
	// Verify must FAIL here: everyone "decided" differently (the echo
	// runner is not a consensus algorithm) — which also proves the checker
	// has teeth.
	if err := res.Verify(3); err == nil {
		t.Error("Verify accepted divergent decisions")
	}
}

func TestExplicitProposals(t *testing.T) {
	res := conslab.Run(conslab.Setup{
		N:         2,
		Seed:      1,
		Proposals: map[dsys.ProcessID]any{1: "x", 2: "x"},
		Run:       echoRunner,
	})
	if err := res.Verify(2); err != nil {
		t.Fatal(err)
	}
}

func TestCrashesPreventDecisionRecording(t *testing.T) {
	res := conslab.Run(conslab.Setup{
		N:    3,
		Seed: 1,
		Crashes: map[dsys.ProcessID]time.Duration{
			2: time.Millisecond,
		},
		Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal {
			return &echo{v: v, wait: 10 * time.Millisecond} // p2 crashes during the sleep
		},
		Proposals: map[dsys.ProcessID]any{1: "same", 2: "same", 3: "same"},
	})
	if _, ok := res.Log.Decided(2); ok {
		t.Error("crashed process recorded a decision")
	}
	if err := res.Verify(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Crashed[2]; !ok {
		t.Error("crash not recorded")
	}
}

func TestBeforeHookRuns(t *testing.T) {
	ran := false
	conslab.Run(conslab.Setup{
		N:    1,
		Seed: 1,
		Run:  echoRunner,
		Before: func(k *sim.Kernel) {
			ran = true
			if k.N() != 1 {
				t.Errorf("kernel N = %d", k.N())
			}
		},
	})
	if !ran {
		t.Error("Before hook skipped")
	}
}
