// Package e2e holds whole-stack integration tests: multiple protocol
// modules sharing the same processes and network, verifying that the layers
// compose without interfering — the way a real deployment would run them.
package e2e

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestFullStackCoexistence runs, on the same five processes at once:
//   - a ring ◇C detector,
//   - the Fig. 2 ◇C→◇P transformation fed by it,
//   - a replicated log (its own consensus instances), and
//   - a standalone consensus instance,
//
// then crashes a process and verifies every layer's guarantees on the same
// trace: ◇P for the transformation output, log agreement, and consensus
// agreement. The point is message-kind isolation and shared-substrate
// correctness.
func TestFullStackCoexistence(t *testing.T) {
	const n = 5
	col := trace.NewCollector()
	k := sim.New(sim.Config{
		N:       n,
		Network: network.PartiallySynchronous{GST: 50 * time.Millisecond, Delta: 8 * time.Millisecond},
		Seed:    31,
		Trace:   col,
	})
	rec := check.NewFDRecorder(n)
	replicas := make(map[dsys.ProcessID]*core.Replica, n)
	props := make(map[dsys.ProcessID]*cec.Proposal, n)

	// Each node is one step task: its first step starts every layer, and
	// every step runs the standalone consensus instance.
	for _, id := range dsys.Pids(n) {
		k.SpawnStep(id, "node", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
			if props[id] == nil {
				det := ring.Start(p, ring.Options{})
				tp := transform.Start(p, det, transform.Options{})
				rec.SetProbe(id, check.FDProbe{Suspected: tp.Suspected, Trusted: det.Trusted})
				replicas[id] = core.StartReplica(p, core.Config{
					Detector:  det,
					Consensus: consensus.Options{Instance: "log"},
				})
				props[id] = cec.NewProposal(det, rbcast.Start(p), fmt.Sprintf("sa-%v", id),
					consensus.Options{Instance: "standalone"})
			}
			return props[id].Step(p, m)
		})
	}
	rec.Attach(k, 5*time.Millisecond, 5*time.Millisecond)
	k.ScheduleFunc(150*time.Millisecond, func(time.Duration) {
		replicas[2].Submit("log-a")
		replicas[3].Submit("log-b")
	})
	k.CrashAt(5, 400*time.Millisecond)
	k.ScheduleFunc(700*time.Millisecond, func(time.Duration) {
		replicas[4].Submit("log-c")
	})
	k.Run(4 * time.Second)

	// Layer 1: the transformation's output is ◇P on the shared trace.
	tr := check.FDTrace{N: n, Rec: rec, Crashed: col.Crashed()}
	if v := tr.EventuallyPerfect(); !v.Holds {
		t.Error("transformation output lost ◇P while sharing the substrate")
	}

	// Layer 2: the replicated logs agree and contain all three commands.
	want := []any{"log-a", "log-b", "log-c"}
	for _, id := range []dsys.ProcessID{1, 2, 3, 4} {
		got := replicas[id].AppliedValues()
		if len(got) != 3 {
			t.Fatalf("%v applied %v", id, got)
		}
		if !reflect.DeepEqual(got, replicas[1].AppliedValues()) {
			t.Fatalf("log divergence at %v", id)
		}
	}
	seen := map[any]bool{}
	for _, v := range replicas[1].AppliedValues() {
		seen[v] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("command %v missing from the log", w)
		}
	}

	// Layer 3: the standalone consensus instance agreed.
	ref, ok := props[1].Result()
	if !ok {
		t.Fatal("standalone consensus never decided at p1")
	}
	for _, id := range []dsys.ProcessID{2, 3, 4} {
		if got, _ := props[id].Result(); got.Value != ref.Value {
			t.Errorf("standalone consensus disagreement at %v: %v vs %v", id, got.Value, ref.Value)
		}
	}

	// Cross-layer isolation: the standalone instance's messages and the
	// log's messages are distinguishable in the trace and both flowed.
	if col.Sent(core.KindKick+"/log") == 0 {
		t.Error("no log kicks observed")
	}
	if col.Sent(transform.KindList) == 0 {
		t.Error("no transformation lists observed")
	}
}

// TestTwoIndependentLogs runs two replicated logs on the same processes
// under different instance namespaces; their orderings must be independent
// and internally consistent.
func TestTwoIndependentLogs(t *testing.T) {
	const n = 3
	k := sim.New(sim.Config{
		N:       n,
		Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
		Seed:    32,
	})
	logA := make(map[dsys.ProcessID]*core.Replica, n)
	logB := make(map[dsys.ProcessID]*core.Replica, n)
	for _, id := range dsys.Pids(n) {
		id := id
		k.Spawn(id, "node", func(p dsys.Proc) {
			det := ring.Start(p, ring.Options{})
			logA[id] = core.StartReplica(p, core.Config{Detector: det, Consensus: consensus.Options{Instance: "A"}})
			logB[id] = core.StartReplica(p, core.Config{Detector: det, Consensus: consensus.Options{Instance: "B"}})
		})
	}
	k.ScheduleFunc(20*time.Millisecond, func(time.Duration) {
		logA[1].Submit("a1")
		logB[2].Submit("b1")
		logA[3].Submit("a2")
		logB[1].Submit("b2")
	})
	k.Run(3 * time.Second)
	for _, id := range dsys.Pids(n) {
		a, b := logA[id].AppliedValues(), logB[id].AppliedValues()
		if len(a) != 2 || len(b) != 2 {
			t.Fatalf("%v: logA=%v logB=%v", id, a, b)
		}
		if !reflect.DeepEqual(a, logA[dsys.ProcessID(1)].AppliedValues()) ||
			!reflect.DeepEqual(b, logB[dsys.ProcessID(1)].AppliedValues()) {
			t.Fatalf("%v diverged", id)
		}
		for _, v := range a {
			if v == "b1" || v == "b2" {
				t.Fatalf("cross-log contamination: %v in log A", v)
			}
		}
	}
}
