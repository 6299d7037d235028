package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/rbcast"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The tests in this file pin the event-driven commit path in virtual time:
// constant 1 ms links, a scripted detector that trusts p1 forever, zero
// self-delay, and consensus.Options.Poll set to a whole second so that any
// step still waiting for a timer shows up as a second, not as a rounding
// error.

const link = time.Millisecond

// census counts the tasks alive per name. A censusProc hands every task it
// spawns a censusProc of its own, so tasks spawned by tasks are counted too.
type census struct {
	mu   sync.Mutex
	live map[string]int
}

func (c *census) add(name string, d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live == nil {
		c.live = map[string]int{}
	}
	c.live[name] += d
}

func (c *census) alive(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live[name]
}

type censusProc struct {
	dsys.Proc
	c *census
}

func (cp censusProc) Spawn(name string, fn dsys.TaskFunc) {
	cp.Proc.Spawn(name, func(p dsys.Proc) {
		cp.c.add(name, 1)
		defer cp.c.add(name, -1)
		fn(censusProc{p, cp.c})
	})
}

// eventCluster wires n replicas over scripted detectors trusting p1, one
// command per slot, one slot at a time.
type eventCluster struct {
	k       *sim.Kernel
	col     *trace.Collector
	dets    *fdtest.Cluster
	reps    map[dsys.ProcessID]*core.Replica
	tasks   map[dsys.ProcessID]*census
	applyAt map[dsys.ProcessID]map[any]time.Duration // payload -> apply time, per process
	applied map[dsys.ProcessID]int
}

func newEventCluster(n int, onApply func(at dsys.ProcessID, slot int)) *eventCluster {
	ec := &eventCluster{
		col:     trace.NewCollector(),
		reps:    map[dsys.ProcessID]*core.Replica{},
		tasks:   map[dsys.ProcessID]*census{},
		applyAt: map[dsys.ProcessID]map[any]time.Duration{},
		applied: map[dsys.ProcessID]int{},
	}
	ec.k = sim.New(sim.Config{N: n, Network: reliable(), Seed: 1, Trace: ec.col})
	ec.dets = fdtest.NewCluster(n, 1)
	for _, id := range dsys.Pids(n) {
		id := id
		ec.tasks[id] = &census{}
		ec.applyAt[id] = map[any]time.Duration{}
		ec.k.Spawn(id, "replica", func(p dsys.Proc) {
			ec.reps[id] = core.StartReplica(censusProc{p, ec.tasks[id]}, core.Config{
				Detector:  ec.dets.At(id),
				Consensus: consensus.Options{Poll: time.Second},
				MaxBatch:  1,
				Pipeline:  1,
				Apply: func(slot int, cmd core.Command) {
					ec.applyAt[id][cmd.Payload] = ec.k.Now()
					ec.applied[id]++
					if onApply != nil {
						onApply(id, slot)
					}
				},
			})
		})
	}
	return ec
}

// TestLoneSubmitCommitsInLinkDelays: a command submitted at an idle replica
// is applied a fixed number of link delays later and nothing else enters the
// sum — whatever the submit instant's phase against any poll interval. From
// a follower: kick → coord → est → prop → ack → decide, so the origin (and
// the other follower) apply after 6 delays and the leader, which decides one
// hop earlier, after 5. From the leader the kick and the announcement leave
// together: the leader applies after 4 and the followers after 5.
func TestLoneSubmitCommitsInLinkDelays(t *testing.T) {
	for _, tc := range []struct {
		origin dsys.ProcessID
		want   map[dsys.ProcessID]time.Duration
	}{
		{origin: 2, want: map[dsys.ProcessID]time.Duration{1: 5 * link, 2: 6 * link, 3: 6 * link}},
		{origin: 1, want: map[dsys.ProcessID]time.Duration{1: 4 * link, 2: 5 * link, 3: 5 * link}},
	} {
		// Offsets chosen to land on every phase of the old 2 ms idle poll and
		// of cec's 1 ms default poll.
		for _, at := range []time.Duration{100 * time.Millisecond, 200*time.Millisecond + 300*time.Microsecond,
			300*time.Millisecond + 1700*time.Microsecond, 400*time.Millisecond + 999*time.Microsecond} {
			ec := newEventCluster(3, nil)
			ec.k.ScheduleFunc(at, func(time.Duration) { ec.reps[tc.origin].Submit("x") })
			ec.k.Run(at + 100*time.Millisecond)
			for id, want := range tc.want {
				got, ok := ec.applyAt[id]["x"]
				if !ok {
					t.Fatalf("submit at %v by %v: %v never applied it", at, tc.origin, id)
				}
				if got-at != want {
					t.Errorf("submit at %v by %v: %v applied after %v, want exactly %v", at, tc.origin, id, got-at, want)
				}
			}
		}
	}
}

// TestFaultFreeSlotMessageCounts: one fault-free slot costs exactly the
// closed forms — 4(n−1) consensus messages on the network (announcement,
// estimate, proposition, ack, each n−1 times; the coordinator's own are
// local), all of them in round 1, no probe and no decided-answer; (n−1)²
// reliable-broadcast messages (n−1 from the origin, n−2 relays from each
// receiver); n−1 kicks.
func TestFaultFreeSlotMessageCounts(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		ec := newEventCluster(n, nil)
		ec.k.ScheduleFunc(50*time.Millisecond, func(time.Duration) { ec.reps[2].Submit("x") })
		ec.k.Run(time.Second)
		for _, id := range dsys.Pids(n) {
			if ec.applied[id] != 1 {
				t.Fatalf("n=%d: %v applied %d commands, want 1", n, id, ec.applied[id])
			}
		}
		remote := map[string]int{}
		for _, e := range ec.col.Events() {
			if e.From == e.To {
				continue
			}
			remote[e.Kind]++
			if env, ok := e.Payload.(consensus.Msg); ok && env.Round != 1 {
				t.Errorf("n=%d: %s for round %d crossed the network; the slot decided in round 1", n, e.Kind, env.Round)
			}
		}
		cecTotal := 0
		for kind, c := range remote {
			if strings.HasPrefix(kind, "cec.") {
				cecTotal += c
			}
		}
		for kind, want := range map[string]int{
			cec.KindCoord: n - 1, cec.KindEst: n - 1, cec.KindProp: n - 1, cec.KindAck: n - 1,
			cec.KindNack: 0, cec.KindProbe: 0, cec.KindDecided: 0,
			rbcast.Kind:   (n - 1) * (n - 1),
			core.KindKick: n - 1,
		} {
			if remote[kind] != want {
				t.Errorf("n=%d: %d remote %s, want %d", n, remote[kind], kind, want)
			}
		}
		if cecTotal != 4*(n-1) {
			t.Errorf("n=%d: %d remote cec.* messages, want 4(n−1) = %d", n, cecTotal, 4*(n-1))
		}
	}
}

// TestSequentialSlotsLeaveNothingBehind runs 200 slots one after the other
// and checks what a long-lived node cares about: a slot's instance task is
// gone by the time the next slot applies (its Propose returned on the
// R-delivery, not a poll later), and at the end no instance task is alive
// and no mailbox holds a message that nothing will ever take.
func TestSequentialSlotsLeaveNothingBehind(t *testing.T) {
	const n, slots = 3, 200
	var ec *eventCluster
	next := 0
	submit := func() {
		next++
		ec.reps[dsys.ProcessID(2+next%2)].Submit(fmt.Sprintf("c%d", next))
	}
	mostAlive := map[dsys.ProcessID]int{}
	ec = newEventCluster(n, func(at dsys.ProcessID, slot int) {
		mostAlive[at] = max(mostAlive[at], ec.tasks[at].alive("core-inst"))
		if at == 1 && next < slots {
			submit()
		}
	})
	left := map[dsys.ProcessID]int{}
	for _, id := range dsys.Pids(n) {
		id := id
		ec.k.Spawn(id, "sweep", func(p dsys.Proc) {
			p.Sleep(9 * time.Second)
			for {
				if _, ok := p.RecvTimeout(dsys.MatchAny, 0); !ok {
					return
				}
				left[id]++
			}
		})
	}
	ec.k.ScheduleFunc(10*time.Millisecond, func(time.Duration) { submit() })
	ec.k.Run(10 * time.Second)
	for _, id := range dsys.Pids(n) {
		if ec.applied[id] != slots {
			t.Fatalf("%v applied %d of %d commands", id, ec.applied[id], slots)
		}
		// Apply runs on the driver at the instant the decision is delivered,
		// a step ahead of the slot's own runner; every earlier runner must be
		// gone by then.
		if mostAlive[id] > 1 {
			t.Errorf("%v applied a slot with %d instance tasks alive, want at most the slot's own", id, mostAlive[id])
		}
		if alive := ec.tasks[id].alive("core-inst"); alive != 0 {
			t.Errorf("%v: %d instance tasks alive after the last slot", id, alive)
		}
		if left[id] != 0 {
			t.Errorf("%v: %d messages left in the mailbox after %d slots", id, left[id], slots)
		}
	}
	// 200 slots of 5–6 link delays each, back to back: nothing waited for
	// the one-second poll.
	if last := ec.applyAt[1][fmt.Sprintf("c%d", slots)]; last > 10*time.Millisecond+time.Duration(slots)*7*link {
		t.Errorf("slot %d applied at %v: some step waited for a timer", slots, last)
	}
}

// TestSubmitOnCrashedProcess: Submit on a process that has crashed neither
// panics nor blocks nor sends; the survivors keep committing.
func TestSubmitOnCrashedProcess(t *testing.T) {
	ec := newEventCluster(3, nil)
	ec.k.CrashAt(3, 20*time.Millisecond)
	ec.k.ScheduleFunc(30*time.Millisecond, func(time.Duration) {
		ec.dets.SuspectEverywhere(3)
		ec.reps[3].Submit("lost")
		ec.reps[2].Submit("kept")
	})
	ec.k.Run(40 * time.Millisecond)
	if _, ok := ec.applyAt[1]["lost"]; ok {
		t.Error("a command submitted on a crashed process was applied")
	}
	if got := ec.applyAt[2]["kept"]; got != 36*time.Millisecond {
		t.Errorf("survivor's command applied at its origin at %v, want 36ms", got)
	}
	for _, e := range ec.col.Events() {
		if e.From == 3 && e.At >= 20*time.Millisecond {
			t.Errorf("crashed p3 sent %s at %v", e.Kind, e.At)
		}
	}
}
