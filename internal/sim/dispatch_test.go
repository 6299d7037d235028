package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/dsys"
)

// kindsPred is the arbitrary-predicate twin of dsys.MatchKinds: the same
// messages, dispatched through the generic lane and the arrival-order scan.
func kindsPred(kinds ...string) dsys.Matcher {
	return dsys.MatchFunc(func(m *dsys.Message) bool { return slices.Contains(kinds, m.Kind) })
}

// dispatchScenario runs three waiters on p1, spawned at 10ms in this order:
// A, a step task waiting on {a, b} that naps 5ms after each message; B, a
// receive loop on loopKinds; C, a step task waiting on a predicate
// accepting a or b that naps 3ms after each message. p2 sends a, b and
// unrelated c messages (1ms latency): seven arrive at 1ms and sit in the
// buffer until the waiters start, the rest arrive while A and C alternate
// between parked and napping. With reference set, every waiter matches
// through a predicate: the generic lane, whose dispatch is the plain scan
// for the lowest-id parked matching task and whose takes scan the buffer in
// arrival order. It returns who took what, when, and the kinds left in p1's
// buffer.
func dispatchScenario(reference bool, loopKinds []string) (log, left []string) {
	k := New(reliableCfg(2, 1))
	took := func(who string) dsys.RecvLoopFunc {
		return func(p dsys.Proc, m *dsys.Message) {
			log = append(log, fmt.Sprintf("%s:%s%d@%v", who, m.Kind, m.Payload, p.Now()))
		}
	}
	waiter := func(who string, match dsys.Matcher, nap time.Duration) dsys.StepFunc {
		return func(p dsys.Proc, m *dsys.Message) dsys.Wait {
			if m != nil {
				took(who)(p, m)
				if nap > 0 {
					return dsys.Sleep(nap)
				}
			}
			return dsys.Await(match)
		}
	}
	k.SpawnStep(1, "spawner", script(
		sleep(10*time.Millisecond),
		then(func(p dsys.Proc, _ *dsys.Message) {
			if reference {
				dsys.SpawnStep(p, "A", waiter("A", kindsPred("a", "b"), 5*time.Millisecond))
				dsys.SpawnStep(p, "B", waiter("B", kindsPred(loopKinds...), 0))
			} else {
				dsys.SpawnStep(p, "A", waiter("A", dsys.MatchKinds("a", "b"), 5*time.Millisecond))
				dsys.SpawnRecvLoop(p, "B", took("B"), loopKinds...)
			}
			dsys.SpawnStep(p, "C", waiter("C", kindsPred("a", "b"), 3*time.Millisecond))
		}),
	))
	late := []struct {
		at   time.Duration // arrival at p1
		kind string
	}{{11, "b"}, {16, "a"}, {17, "c"}, {18, "b"}, {23, "a"}}
	i := -1
	k.SpawnStep(2, "sender", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
		if i < 0 {
			for j, kind := range []string{"c", "b", "a", "c", "b", "a", "b"} {
				p.Send(1, kind, j)
			}
		} else {
			p.Send(1, late[i].kind, 7+i)
		}
		if i++; i == len(late) {
			return dsys.Finished
		}
		return dsys.Sleep(late[i].at*time.Millisecond - time.Millisecond - p.Now())
	})
	k.Run(40 * time.Millisecond)
	p := k.procAt(1)
	for _, e := range p.buf {
		if e.slot >= 0 {
			m := &k.arena.slot(e.slot).m
			left = append(left, fmt.Sprintf("%s%d", m.Kind, m.Payload))
		}
	}
	return log, left
}

// TestMultiKindDispatchMatchesPredicateScan checks that a waiter on a
// multi-kind dsys.KindMatcher, which parks in the kind lane of each of its
// kinds, wins exactly the deliveries the generic lane's scan would give it
// (the lowest-id parked matching task), and that its buffered takes follow
// arrival order across its kinds — for a step task and for a receive loop
// alike.
func TestMultiKindDispatchMatchesPredicateScan(t *testing.T) {
	// With B on {a, b}, B is always parked and outranks C, so C gets
	// nothing. At 10ms A takes the earliest buffered a/b (b1; c0 is
	// skipped) and B drains the rest in arrival order. Afterwards a message
	// goes to A when A is parked (16ms, 23ms) and to B while A naps (11ms,
	// 18ms); the c messages are never taken.
	log, left := dispatchScenario(false, []string{"a", "b"})
	want := []string{
		"A:b1@10ms", "B:a2@10ms", "B:b4@10ms", "B:a5@10ms", "B:b6@10ms",
		"B:b7@11ms", "A:a8@16ms", "B:b10@18ms", "A:a11@23ms",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("B on {a, b}: took\n  %v\nwant\n  %v", log, want)
	}
	if wantLeft := []string{"c0", "c3", "c9"}; !reflect.DeepEqual(left, wantLeft) {
		t.Errorf("B on {a, b}: buffer left %v, want %v", left, wantLeft)
	}

	for _, loopKinds := range [][]string{{"a", "b"}, {"a"}, {"b", "a"}} {
		log, left := dispatchScenario(false, loopKinds)
		refLog, refLeft := dispatchScenario(true, loopKinds)
		if !reflect.DeepEqual(log, refLog) || !reflect.DeepEqual(left, refLeft) {
			t.Errorf("B on %v: kind lanes took\n  %v (left %v)\nthe predicate scan took\n  %v (left %v)", loopKinds, log, left, refLog, refLeft)
		}
		if len(loopKinds) == 1 && !slices.ContainsFunc(log, func(s string) bool { return s[0] == 'C' }) {
			t.Errorf("B on %v: C took nothing; the scenario does not exercise the generic lane", loopKinds)
		}
	}
}

// TestStepSleepMatchesProcSleep checks that a step task's dsys.Sleep waits
// advance virtual time exactly as the simulator's Proc.Sleep did before the
// blocking primitives were removed (the instants in want), a non-positive
// sleep included (it yields 1ns), with one event per sleep.
func TestStepSleepMatchesProcSleep(t *testing.T) {
	naps := []time.Duration{0, 3 * time.Millisecond, -time.Second, time.Nanosecond, 0}
	k := New(reliableCfg(1, 1))
	var woke []time.Duration
	i := 0
	k.Spawn(1, "spawner", func(p dsys.Proc) {
		dsys.SpawnStep(p, "sleeper", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
			woke = append(woke, p.Now())
			if i == len(naps) {
				return dsys.Finished
			}
			i++
			return dsys.Sleep(naps[i-1])
		})
	})
	k.Run(time.Second)
	want := []time.Duration{0, 1, 1 + 3*time.Millisecond, 2 + 3*time.Millisecond, 3 + 3*time.Millisecond, 4 + 3*time.Millisecond}
	if !reflect.DeepEqual(woke, want) || k.Events() != uint64(len(naps)) {
		t.Errorf("step task woke at %v after %d events, want %v after %d", woke, k.Events(), want, len(naps))
	}
}
