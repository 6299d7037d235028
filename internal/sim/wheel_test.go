package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refQueue is the reference implementation the timing wheel must match: the
// plain binary heap the kernel used before the wheel, popping in (at, seq)
// order.
type refQueue struct {
	h eventHeap
}

func (q *refQueue) push(e event) { q.h.push(e) }
func (q *refQueue) pop() event   { return q.h.pop() }
func (q *refQueue) Len() int     { return q.h.Len() }

// TestWheelMatchesHeapPopOrder is the differential test backing the wheel's
// determinism claim: on randomized mixed push/pop workloads — same-instant
// bursts, far-future overflow events, pushes interleaved with pops — the
// wheel pops the exact (at, seq) sequence the old binary heap pops. The
// experiment tables are a function of pop order, so this is what keeps them
// byte-identical across the heap→wheel change.
func TestWheelMatchesHeapPopOrder(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1789} {
		rng := rand.New(rand.NewSource(seed))
		var wheel eventQueue
		var ref refQueue
		var seq uint64
		now := time.Duration(0) // lower bound of pushes, as in the kernel
		push := func(at time.Duration) {
			if at < now {
				at = now
			}
			seq++
			e := event{at: at, seq: seq}
			wheel.push(e)
			ref.push(e)
		}
		popBoth := func() {
			we, re := wheel.pop(), ref.pop()
			if we.at != re.at || we.seq != re.seq {
				t.Fatalf("seed %d: pop mismatch: wheel (%v, %d) vs heap (%v, %d)",
					seed, we.at, we.seq, re.at, re.seq)
			}
			if we.at > now {
				now = we.at
			}
		}
		for step := 0; step < 5000; step++ {
			switch r := rng.Intn(10); {
			case r < 5: // short-range future: the level-0 / low-level regime
				push(now + time.Duration(rng.Int63n(int64(5*time.Millisecond))))
			case r < 6: // same-instant burst: ties broken by seq alone
				at := now + time.Duration(rng.Int63n(int64(time.Millisecond)))
				for i := 0; i < 1+rng.Intn(8); i++ {
					push(at)
				}
			case r < 7: // mid-range: upper wheel levels, cascading
				push(now + time.Duration(rng.Int63n(int64(10*time.Minute))))
			case r < 8: // far future: beyond the wheel horizon, overflow heap
				push(now + time.Duration(rng.Int63n(int64(100*24*time.Hour))))
			default:
				if ref.Len() > 0 {
					popBoth()
				} else {
					push(now + time.Duration(rng.Int63n(int64(time.Second))))
				}
			}
			if wheel.Len() != ref.Len() {
				t.Fatalf("seed %d: size mismatch: wheel %d vs heap %d", seed, wheel.Len(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			popBoth()
		}
		if wheel.Len() != 0 {
			t.Fatalf("seed %d: wheel retains %d events after drain", seed, wheel.Len())
		}
	}
}

// TestWheelPeriodicTimerOrder replays the kernel's dominant workload shape
// against the reference heap: self-rescheduling periodic timers (whose spans
// exceed the level-0 horizon, so they file into upper levels and cascade)
// interleaved with short-delay message deliveries pushed by the events being
// popped. This is the regime that exposed the advance() fast-path straddle
// bug: after the frontier crosses a 256-tick block boundary, the new block's
// parent slot still holds that block's timers, and deliveries pushed by the
// just-drained batch occupy level 0 — draining level 0 first fires later
// events before earlier ones.
func TestWheelPeriodicTimerOrder(t *testing.T) {
	for _, seed := range []int64{1, 5, 99, 2024} {
		rng := rand.New(rand.NewSource(seed))
		var wheel eventQueue
		var ref refQueue
		var seq uint64
		now := time.Duration(0)
		push := func(at time.Duration) {
			if at < now {
				at = now
			}
			seq++
			e := event{at: at, seq: seq}
			wheel.push(e)
			ref.push(e)
		}
		// Timers with heartbeat-like periods: all beyond the ~2.1ms level-0
		// horizon, none aligned with it.
		periods := []time.Duration{
			10 * time.Millisecond, 5 * time.Millisecond,
			13 * time.Millisecond, 60 * time.Millisecond,
		}
		for _, d := range periods {
			for i := 0; i < 4; i++ { // several processes per period
				push(d)
			}
		}
		for step := 0; step < 30000 && ref.Len() > 0; step++ {
			we, re := wheel.pop(), ref.pop()
			if we.at != re.at || we.seq != re.seq {
				t.Fatalf("seed %d step %d: pop mismatch: wheel (%v, %d) vs heap (%v, %d)",
					seed, step, we.at, we.seq, re.at, re.seq)
			}
			if we.at > now {
				now = we.at
			}
			// The popped event reschedules itself on a period and, like a
			// heartbeat send burst, emits a few short-delay deliveries.
			p := periods[rng.Intn(len(periods))]
			push(now + p)
			for i := rng.Intn(3); i > 0; i-- {
				push(now + time.Duration(rng.Int63n(int64(3*time.Millisecond))))
			}
			// Keep the population bounded: sometimes pop without replacing.
			if rng.Intn(4) == 0 && ref.Len() > 1 {
				we, re = wheel.pop(), ref.pop()
				if we.at != re.at || we.seq != re.seq {
					t.Fatalf("seed %d step %d: drain mismatch: wheel (%v, %d) vs heap (%v, %d)",
						seed, step, we.at, we.seq, re.at, re.seq)
				}
				if we.at > now {
					now = we.at
				}
			}
		}
	}
}

// TestWheelOverflowLongHorizon is the long-horizon regression test for the
// overflow heap: timers scheduled past every wheel level (tens to hundreds
// of virtual days, against a top-level horizon of ≈ 26 days) must pop in the
// exact (at, seq) order of the reference binary heap, through every path the
// overflow can take — events straddling the horizon boundary, exact
// top-window multiples, ties at one instant between events filed into the
// wheel and into the overflow at different epochs, and frontier jumps that
// pull whole top windows back in. It also pins the fix for the fast-path
// regression at long horizons: a resident far-future overflow event must not
// degrade pop order (overflowBeyondWindow keeps the O(1) advance usable; the
// slow path and the fast path must agree bit-exactly).
func TestWheelOverflowLongHorizon(t *testing.T) {
	const topShift = wheelTickBits + wheelL0Bits + wheelLevels*wheelLevelBits
	day := 24 * time.Hour
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var wheel eventQueue
		var ref refQueue
		var seq uint64
		now := time.Duration(0)
		push := func(at time.Duration) {
			if at < now {
				at = now
			}
			seq++
			e := event{at: at, seq: seq}
			wheel.push(e)
			ref.push(e)
		}
		pop := func(step int) {
			we, re := wheel.pop(), ref.pop()
			if we.at != re.at || we.seq != re.seq {
				t.Fatalf("seed %d step %d: pop mismatch: wheel (%v, %d) vs heap (%v, %d)",
					seed, step, we.at, we.seq, re.at, re.seq)
			}
			if we.at > now {
				now = we.at
			}
		}
		// A resident horizon timer: parks in the overflow for most of the
		// run, so nearly every advance runs with overflow non-empty.
		push(400 * day)
		horizon := time.Duration(1) << topShift
		var lastAt time.Duration
		for step := 0; step < 6000; step++ {
			switch r := rng.Intn(16); {
			case r < 3: // level-0 regime under the resident overflow event
				push(now + time.Duration(rng.Int63n(int64(2*time.Millisecond))))
			case r < 5: // duplicate a prior instant: tie across filing epochs
				push(lastAt)
			case r < 7: // straddle the ≈26-day horizon from the current now
				lastAt = now + horizon - time.Duration(rng.Int63n(int64(time.Hour))) +
					time.Duration(rng.Int63n(int64(2*time.Hour)))
				push(lastAt)
			case r < 9: // exact top-window multiples and their neighbours
				k := 1 + rng.Int63n(6)
				lastAt = time.Duration(k) << topShift
				push(lastAt)
				push(lastAt - 1)
				push(lastAt + 1)
			case r < 11: // deep future: several top windows out
				lastAt = now + time.Duration(rng.Int63n(int64(200*day)))
				push(lastAt)
			case r < 12: // same-instant burst far beyond the horizon
				at := now + time.Duration(rng.Int63n(int64(60*day)))
				for i := 0; i < 4; i++ {
					push(at)
				}
			default:
				if ref.Len() > 0 {
					pop(step)
				}
			}
			if wheel.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: size mismatch: wheel %d vs heap %d",
					seed, step, wheel.Len(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			pop(-1)
		}
		if wheel.Len() != 0 {
			t.Fatalf("seed %d: wheel retains %d events after drain", seed, wheel.Len())
		}
	}
}

// TestWheelPopDue checks the fused peek-then-pop against the plain pop: due
// events come out in order, and a beyond-limit head is left in place.
func TestWheelPopDue(t *testing.T) {
	var q eventQueue
	var seq uint64
	push := func(at time.Duration) {
		seq++
		q.push(event{at: at, seq: seq})
	}
	push(5 * time.Millisecond)
	push(time.Millisecond)
	push(time.Hour) // far enough for the overflow/upper levels
	if _, ok := q.popDue(500 * time.Microsecond); ok {
		t.Fatal("popDue returned an event past the limit")
	}
	e, ok := q.popDue(time.Millisecond)
	if !ok || e.at != time.Millisecond {
		t.Fatalf("popDue: got (%v, %v), want the 1ms event", e.at, ok)
	}
	e, ok = q.popDue(time.Minute)
	if !ok || e.at != 5*time.Millisecond {
		t.Fatalf("popDue: got (%v, %v), want the 5ms event", e.at, ok)
	}
	if _, ok := q.popDue(time.Minute); ok {
		t.Fatal("popDue returned the 1h event before its limit")
	}
	e, ok = q.popDue(2 * time.Hour)
	if !ok || e.at != time.Hour {
		t.Fatalf("popDue: got (%v, %v), want the 1h event", e.at, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("queue retains %d events", q.Len())
	}
}

// capacity sums the event arrays the queue holds anywhere: in slots, in the
// due set and idle in the pool.
func (q *eventQueue) capacity() int {
	total := cap(q.cur.run)
	for i := range q.slots0 {
		total += cap(q.slots0[i])
	}
	for li := range q.levels {
		for i := range q.levels[li].slots {
			total += cap(q.levels[li].slots[i])
		}
	}
	for _, free := range q.pool.free {
		for _, buf := range free {
			total += cap(buf)
		}
	}
	return total
}

// TestWheelCapacityTracksPending drives the wheel with the heartbeat cell's
// shape at its worst — every period a timer fires and files a burst of 10,000
// deliveries into a single tick — for long enough that the bursts land in
// every one of the 256 level-0 slots, that bursts filed across a level-1
// window edge cascade, and that the frontier crosses two level-2 windows,
// where timer and burst cascade out of one shared slot. Pop order must equal
// the reference heap's, and the arrays the wheel holds in total must stay
// within what the events pending at once needed: at most three arrays of the
// size class the peak fits in — the due set's or a cascading slot's, the
// destination slot's, and once more for all the smaller classes a slot grows
// through — which is under six times the peak whatever its size (4.9× for
// this burst; ISSUE 18 asked for 4×, which holds for bursts filling three
// quarters of their class). With one array kept per slot, each as large as
// the largest burst that ever crossed it, the same run held arrays for 3.87
// million events, 387 times the peak.
func TestWheelCapacityTracksPending(t *testing.T) {
	const (
		burst  = 10000
		tick   = time.Duration(1) << wheelTickBits
		period = 1221 * tick // ≈ 10ms; odd, so burst slots walk all of level 0
		lat    = 122 * tick  // ≈ 1ms
		rounds = 300         // every level-0 slot once (1221 is odd), 22 level-2 windows
	)
	var wheel eventQueue
	var ref refQueue
	var seq uint64
	push := func(at time.Duration) {
		seq++
		e := event{at: at, seq: seq}
		wheel.push(e)
		ref.push(e)
	}
	peak := 0
	slotsHit := map[int64]bool{}
	push(period)
	for round := 0; ref.Len() > 0; {
		we, re := wheel.pop(), ref.pop()
		if we.at != re.at || we.seq != re.seq {
			t.Fatalf("round %d: pop mismatch: wheel (%v, %d) vs heap (%v, %d)", round, we.at, we.seq, re.at, re.seq)
		}
		// The timer is the event at a period multiple; everything else is a
		// delivery and pushes nothing.
		if we.at%period != 0 || round == rounds {
			continue
		}
		round++
		push(we.at + period)
		for i := 0; i < burst; i++ {
			push(we.at + lat)
		}
		slotsHit[(int64(we.at+lat)>>wheelTickBits)&wheelL0Mask] = true
		peak = max(peak, wheel.Len())
	}
	if wheel.Len() != 0 {
		t.Fatalf("wheel retains %d events after drain", wheel.Len())
	}
	if len(slotsHit) != wheelL0Slots {
		t.Fatalf("bursts landed in %d of %d level-0 slots", len(slotsHit), wheelL0Slots)
	}
	class := slotCap
	for class < peak {
		class <<= 1
	}
	// The constant covers one arena chunk of smallest arrays.
	if got, limit := wheel.capacity(), 3*class+64*slotCap; got > limit {
		t.Errorf("wheel holds arrays for %d events, peak pending was %d (limit %d)", got, peak, limit)
	}
}
