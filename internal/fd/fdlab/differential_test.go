package fdlab_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/amplify"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/neighbor"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// referenceProc hides the kernel's dsys.LoopSpawner, so SpawnRecvLoop and
// SpawnTickLoop fall back to their blocking expansions (dsys.RecvLoopTask,
// dsys.TickLoopTask) — the path every runtime without the fast path takes.
// It re-wraps the handle of every task it spawns, so loops spawned from
// inside a task (a TickLoop.Setup companion, a module started later) take
// the reference path too.
type referenceProc struct{ dsys.Proc }

func (r referenceProc) Spawn(name string, fn dsys.TaskFunc) {
	r.Proc.Spawn(name, func(p dsys.Proc) { fn(referenceProc{p}) })
}

// onPath runs build on the reference path when reference is set and on the
// kernel's callback path otherwise.
func onPath(reference bool, build func(p dsys.Proc) any) func(p dsys.Proc) any {
	if !reference {
		return build
	}
	return func(p dsys.Proc) any { return build(referenceProc{p}) }
}

// sameMessages fails the test at the first entry where two message logs
// differ.
func sameMessages(t *testing.T, cb, ref []trace.MsgEvent) {
	t.Helper()
	if len(cb) != len(ref) {
		t.Fatalf("message log length: callback %d vs reference %d", len(cb), len(ref))
	}
	for i := range cb {
		if !reflect.DeepEqual(cb[i], ref[i]) {
			t.Fatalf("message log diverges at entry %d: callback %+v vs reference %+v", i, cb[i], ref[i])
		}
	}
}

// TestCallbackGoroutineDifferential is the execution-scheme differential test
// backing the kernel's goroutine-free fast path: every run must be
// bit-identical whether its loop tasks run as resumable callbacks on the
// kernel goroutine (the default) or as their blocking expansions, each on
// its own goroutine (referenceProc). The experiment tables are a function of
// the sampled detector outputs and the message log, so equality here is
// what keeps every table byte-identical across the two schemes.
//
// The setups cover each loop shape the modules use: immediate and
// sleep-first tick loops, single- and multi-kind receive loops, and the
// Setup-hook spawn (transform's Task 4 inside Task 3's loop), under partial
// synchrony chosen to force false suspicions, retractions and list adoptions
// — the paths where a divergence in scheduling order would surface.
func TestCallbackGoroutineDifferential(t *testing.T) {
	period := 10 * time.Millisecond
	cases := []struct {
		name  string
		seed  int64
		build func(p dsys.Proc) any
	}{
		{"heartbeat", 4201, func(p dsys.Proc) any {
			return heartbeat.Start(p, heartbeat.Options{Period: period})
		}},
		{"ring", 4202, func(p dsys.Proc) any {
			return ring.Start(p, ring.Options{Period: period})
		}},
		{"transform", 4203, func(p dsys.Proc) any {
			return transform.Start(p, fdtest.NewScripted(1), transform.Options{Period: period})
		}},
		{"omega-leaderbeat", 4204, func(p dsys.Proc) any {
			return omega.StartLeaderBeat(p, omega.Options{Period: period})
		}},
		{"omega-stable", 4205, func(p dsys.Proc) any {
			return omega.StartStable(p, omega.Options{Period: period})
		}},
		{"omega-fromsuspector", 4206, func(p dsys.Proc) any {
			return omega.StartFromSuspector(p, heartbeat.Start(p, heartbeat.Options{Period: period}), omega.Options{Period: period})
		}},
		{"neighbor", 4207, func(p dsys.Proc) any {
			return neighbor.Start(p, neighbor.Options{Period: period})
		}},
		{"amplify", 4208, func(p dsys.Proc) any {
			return amplify.Start(p, neighbor.Start(p, neighbor.Options{Period: period}), amplify.Options{Period: period})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(reference bool) fdlab.Result {
				return fdlab.Run(fdlab.Setup{
					N:    8,
					Seed: tc.seed,
					// GST after several periods with Δ above the initial
					// timeout: pre-GST delays cause false suspicions and
					// retractions before the run settles.
					Net:     fdlab.PartialSync(300*time.Millisecond, 35*time.Millisecond),
					Crashes: map[dsys.ProcessID]time.Duration{3: 600 * time.Millisecond},
					Build:   onPath(reference, tc.build),
					RunFor:  1200 * time.Millisecond,
				})
			}
			cb, ref := run(false), run(true)
			if cb.Events != ref.Events {
				t.Errorf("event count: callback %d vs reference %d", cb.Events, ref.Events)
			}
			if cb.End != ref.End {
				t.Errorf("end time: callback %v vs reference %v", cb.End, ref.End)
			}
			for _, id := range dsys.Pids(8) {
				a, b := cb.Trace.Rec.Samples(id), ref.Trace.Rec.Samples(id)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("process %v: sampled detector outputs diverge (%d vs %d samples)", id, len(a), len(b))
				}
			}
			sameMessages(t, cb.Messages.Events(), ref.Messages.Events())
		})
	}

	// The replicated log: core's state server and the rbcast relay are
	// callback loops, core's log driver and instance runners block in
	// Propose, and they share one ring detector — so the two kinds of task
	// interleave on every step of a leader crash and hand-over.
	t.Run("replicated-log", func(t *testing.T) {
		const n = 5
		type result struct {
			events  uint64
			msgs    []trace.MsgEvent
			applied map[dsys.ProcessID][]any
		}
		run := func(reference bool) result {
			col := trace.NewCollector()
			k := sim.New(sim.Config{N: n, Network: fdlab.PartialSync(100*time.Millisecond, 5*time.Millisecond), Seed: 4301, Trace: col})
			reps := make(map[dsys.ProcessID]*core.Replica, n)
			for _, id := range dsys.Pids(n) {
				k.Spawn(id, "replica", func(p dsys.Proc) {
					if reference {
						p = referenceProc{p}
					}
					det := ring.Start(p, ring.Options{Period: period})
					reps[id] = core.StartReplica(p, core.Config{Detector: det})
				})
			}
			// A steady stream from every process across the crash of p1,
			// everyone's initial leader.
			for i := range 60 {
				k.ScheduleFunc(time.Duration(20+5*i)*time.Millisecond, func(time.Duration) {
					for _, id := range dsys.Pids(n) {
						reps[id].Submit(fmt.Sprintf("%v-%d", id, i))
					}
				})
			}
			k.CrashAt(1, 150*time.Millisecond)
			k.Run(3 * time.Second)
			res := result{events: k.Events(), msgs: col.Events(), applied: map[dsys.ProcessID][]any{}}
			for _, id := range dsys.Pids(n) {
				res.applied[id] = reps[id].AppliedValues()
			}
			return res
		}
		cb, ref := run(false), run(true)
		if got := len(cb.applied[2]); got < 60*(n-1) {
			t.Errorf("p2 applied only %d commands; the run does not exercise the log", got)
		}
		if cb.events != ref.events {
			t.Errorf("event count: callback %d vs reference %d", cb.events, ref.events)
		}
		if !reflect.DeepEqual(cb.applied, ref.applied) {
			t.Error("applied logs diverge between the callback and reference paths")
		}
		sameMessages(t, cb.msgs, ref.msgs)
	})
}
