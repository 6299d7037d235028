package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// cluster wires n replicas in a simulation and returns them with the kernel.
func cluster(n int, seed int64, net network.Network, cfgOf func(id dsys.ProcessID) core.Config) (*sim.Kernel, map[dsys.ProcessID]*core.Replica, *trace.Collector) {
	col := trace.NewCollector()
	k := sim.New(sim.Config{N: n, Network: net, Seed: seed, Trace: col})
	reps := make(map[dsys.ProcessID]*core.Replica, n)
	for _, id := range dsys.Pids(n) {
		id := id
		k.Spawn(id, "replica", func(p dsys.Proc) {
			cfg := core.Config{}
			if cfgOf != nil {
				cfg = cfgOf(id)
			}
			reps[id] = core.StartReplica(p, cfg)
		})
	}
	return k, reps, col
}

func reliable() network.Network {
	return network.Reliable{Latency: network.Fixed(time.Millisecond)}
}

// assertSameLogs verifies that every listed replica applied the same
// sequence of commands (prefix equality is not enough here: the run must
// have fully converged).
func assertSameLogs(t *testing.T, reps map[dsys.ProcessID]*core.Replica, ids []dsys.ProcessID, wantLen int) {
	t.Helper()
	var ref []any
	for _, id := range ids {
		got := reps[id].AppliedValues()
		if len(got) != wantLen {
			t.Fatalf("%v applied %d entries (%v), want %d", id, len(got), got, wantLen)
		}
		if n := reps[id].AppliedLen(); n != len(reps[id].Applied()) || n != wantLen {
			t.Fatalf("%v: AppliedLen() = %d, len(Applied()) = %d, want %d", id, n, len(reps[id].Applied()), wantLen)
		}
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("logs diverge: %v has %v, reference %v", id, got, ref)
		}
	}
}

func TestSingleSubmitterOrdersEverywhere(t *testing.T) {
	k, reps, _ := cluster(5, 1, reliable(), nil)
	k.ScheduleFunc(20*time.Millisecond, func(time.Duration) {
		reps[1].Submit("a")
		reps[1].Submit("b")
		reps[1].Submit("c")
	})
	k.Run(2 * time.Second)
	assertSameLogs(t, reps, dsys.Pids(5), 3)
	if got := reps[3].AppliedValues(); !reflect.DeepEqual(got, []any{"a", "b", "c"}) {
		t.Errorf("order wrong: %v", got)
	}
	if reps[1].PendingCount() != 0 {
		t.Errorf("submitter still has %d pending", reps[1].PendingCount())
	}
}

func TestConcurrentSubmittersConverge(t *testing.T) {
	k, reps, _ := cluster(5, 2, network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 8 * time.Millisecond}}, nil)
	k.ScheduleFunc(20*time.Millisecond, func(time.Duration) {
		for _, id := range dsys.Pids(5) {
			for j := 0; j < 3; j++ {
				reps[id].Submit(fmt.Sprintf("%v-%d", id, j))
			}
		}
	})
	k.Run(5 * time.Second)
	assertSameLogs(t, reps, dsys.Pids(5), 15)
	// Per-origin FIFO: each replica's own commands appear in submit order.
	vals := reps[2].AppliedValues()
	for _, id := range dsys.Pids(5) {
		last := -1
		for _, v := range vals {
			var origin dsys.ProcessID
			var j int
			fmt.Sscanf(v.(string), "p%d-%d", &origin, &j)
			if origin == id {
				if j <= last {
					t.Fatalf("origin %v out of order: %v", id, vals)
				}
				last = j
			}
		}
	}
}

func TestSurvivesMinorityCrash(t *testing.T) {
	k, reps, _ := cluster(5, 3, reliable(), nil)
	k.ScheduleFunc(20*time.Millisecond, func(time.Duration) {
		reps[2].Submit("x")
		reps[3].Submit("y")
	})
	k.CrashAt(4, 50*time.Millisecond)
	k.CrashAt(5, 60*time.Millisecond)
	k.Run(5 * time.Second)
	assertSameLogs(t, reps, []dsys.ProcessID{1, 2, 3}, 2)
}

func TestSurvivesLeaderCrashWithPendingCommands(t *testing.T) {
	// p1 is the ring detector's initial leader. Submit from p1, crash it
	// shortly after: its command may or may not make it (it could be lost
	// with the crash), but commands from survivors must all be ordered and
	// logs must agree.
	k, reps, _ := cluster(5, 4, reliable(), nil)
	k.ScheduleFunc(10*time.Millisecond, func(time.Duration) {
		reps[1].Submit("from-leader")
		reps[2].Submit("from-p2")
	})
	k.CrashAt(1, 30*time.Millisecond)
	k.Run(6 * time.Second)
	var ref []any
	for _, id := range []dsys.ProcessID{2, 3, 4, 5} {
		got := reps[id].AppliedValues()
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Fatalf("logs diverge: %v vs %v", got, ref)
		}
	}
	found := false
	for _, v := range ref {
		if v == "from-p2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("survivor's command missing from log %v", ref)
	}
}

func TestApplyCallbackInvokedInOrder(t *testing.T) {
	var applied []string
	k, reps, _ := cluster(3, 5, reliable(), func(id dsys.ProcessID) core.Config {
		if id != 2 {
			return core.Config{}
		}
		return core.Config{Apply: func(slot int, cmd core.Command) {
			applied = append(applied, fmt.Sprintf("%d:%v", slot, cmd.Payload))
		}}
	})
	k.ScheduleFunc(10*time.Millisecond, func(time.Duration) {
		reps[3].Submit("m1")
		reps[3].Submit("m2")
	})
	k.Run(2 * time.Second)
	if len(applied) != 2 || applied[0] >= applied[1] {
		t.Errorf("apply callbacks: %v", applied)
	}
}

func TestLateSubmissionAfterQuietPeriod(t *testing.T) {
	k, reps, _ := cluster(3, 6, reliable(), nil)
	k.ScheduleFunc(10*time.Millisecond, func(time.Duration) { reps[1].Submit("early") })
	k.ScheduleFunc(800*time.Millisecond, func(time.Duration) { reps[2].Submit("late") })
	k.Run(3 * time.Second)
	assertSameLogs(t, reps, dsys.Pids(3), 2)
	if got := reps[1].AppliedValues(); got[0] != "early" || got[1] != "late" {
		t.Errorf("log %v", got)
	}
}

func TestScriptedDetectorInjection(t *testing.T) {
	// Replicas run over injected scripted detectors instead of the ring.
	c := fdtest.NewCluster(3, 1)
	k, reps, _ := cluster(3, 7, reliable(), func(id dsys.ProcessID) core.Config {
		return core.Config{Detector: c.At(id)}
	})
	k.ScheduleFunc(10*time.Millisecond, func(time.Duration) { reps[2].Submit("v") })
	k.Run(time.Second)
	assertSameLogs(t, reps, dsys.Pids(3), 1)
}

func TestSubmitReturnsDistinctIdentities(t *testing.T) {
	k, reps, _ := cluster(3, 8, reliable(), nil)
	var c1, c2 core.Command
	k.ScheduleFunc(10*time.Millisecond, func(time.Duration) {
		c1 = reps[1].Submit("a")
		c2 = reps[1].Submit("b")
	})
	k.Run(500 * time.Millisecond)
	if c1.Origin != 1 || c2.Origin != 1 || c1.Seq == c2.Seq {
		t.Errorf("identities: %+v %+v", c1, c2)
	}
}

func TestHeavyLoadManyCommands(t *testing.T) {
	n := 5
	perReplica := 10
	k, reps, _ := cluster(n, 9, network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 5 * time.Millisecond}}, nil)
	// Stagger submissions over time.
	for j := 0; j < perReplica; j++ {
		j := j
		k.ScheduleFunc(time.Duration(10+j*30)*time.Millisecond, func(time.Duration) {
			for _, id := range dsys.Pids(n) {
				reps[id].Submit(fmt.Sprintf("%v/%d", id, j))
			}
		})
	}
	k.Run(20 * time.Second)
	assertSameLogs(t, reps, dsys.Pids(n), n*perReplica)
}

func TestDeterministicReplication(t *testing.T) {
	run := func() []any {
		k, reps, _ := cluster(4, 42, network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond}}, nil)
		k.ScheduleFunc(10*time.Millisecond, func(time.Duration) {
			reps[1].Submit("a")
			reps[3].Submit("b")
			reps[4].Submit("c")
		})
		k.CrashAt(2, 25*time.Millisecond)
		k.Run(4 * time.Second)
		return reps[1].AppliedValues()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replication runs diverged: %v vs %v", a, b)
	}
}
