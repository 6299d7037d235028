package sim

import (
	"math/rand"
	"testing"
	"time"
)

// queueHarness drives an eventQueue and a plain eventHeap, the reference
// order, side by side the way the kernel does: a push at a time before now is
// clamped to now, each push is filed by its delay from now, and now advances
// to every popped event. The experiment tables are a function of pop order,
// so any difference from the heap fails the test.
type queueHarness struct {
	t   *testing.T
	q   eventQueue
	ref eventHeap
	now time.Duration
	seq uint64
	// heapPushes counts the pushes that went to the queue's heap.
	heapPushes int
}

// push schedules an event at at, tagged so the caller can tell it apart when
// it pops.
func (h *queueHarness) push(at time.Duration, tag int32) {
	if at < h.now {
		at = h.now
	}
	h.seq++
	e := event{at: at, seq: h.seq, msg: tag}
	before := h.q.rest.Len()
	h.q.push(e, at-h.now)
	if h.q.rest.Len() > before {
		h.heapPushes++
	}
	h.ref.push(e)
}

// pop pops the earliest event from both and fails on any difference.
func (h *queueHarness) pop() event {
	h.t.Helper()
	got, ok := h.q.popDue(1<<63 - 1)
	want := h.ref.pop()
	if !ok || got != want {
		h.t.Fatalf("pop: queue (%v, %d, ok=%v), heap (%v, %d)", got.at, got.seq, ok, want.at, want.seq)
	}
	if h.q.Len() != h.ref.Len() {
		h.t.Fatalf("size: queue %d, heap %d", h.q.Len(), h.ref.Len())
	}
	h.now = got.at
	return got
}

func (h *queueHarness) drain() {
	h.t.Helper()
	for h.ref.Len() > 0 {
		h.pop()
	}
	if h.q.Len() != 0 {
		h.t.Fatalf("queue retains %d events after drain", h.q.Len())
	}
}

// fifoEvents counts the events the queue's FIFOs hold.
func (q *eventQueue) fifoEvents() int {
	total := 0
	for i := 0; i < q.used; i++ {
		total += q.fifos[i].n
	}
	return total
}

// TestQueueMatchesHeapPopOrder mixes the kernel's event shapes on randomized
// workloads: repeating delays (timer periods, a fixed link latency), random
// delays that never repeat, same-instant bursts whose ties only seq breaks,
// zero delays and pushes into the past that the clamp turns into zero
// delays, all interleaved with pops. The queue must pop the heap's exact
// (at, seq) sequence with both of its halves in use.
func TestQueueMatchesHeapPopOrder(t *testing.T) {
	repeating := []time.Duration{
		0, time.Millisecond, 2500 * time.Microsecond, 10 * time.Millisecond, 60 * time.Millisecond,
	}
	for _, seed := range []int64{1, 2, 3, 7, 42, 1789} {
		rng := rand.New(rand.NewSource(seed))
		h := &queueHarness{t: t}
		peakFIFO := 0
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(12); {
			case r < 4:
				h.push(h.now+repeating[rng.Intn(len(repeating))], 0)
			case r < 6: // a random latency: goes to the heap
				h.push(h.now+time.Duration(rng.Int63n(int64(5*time.Millisecond))), 0)
			case r < 7: // same-instant burst at a random instant
				at := h.now + time.Duration(rng.Int63n(int64(time.Millisecond)))
				for i := 0; i < 1+rng.Intn(8); i++ {
					h.push(at, 0)
				}
			case r < 8: // clamped into a zero delay
				h.push(h.now-time.Duration(rng.Int63n(int64(time.Millisecond))), 0)
			default:
				if h.ref.Len() > 0 {
					h.pop()
				}
			}
			peakFIFO = max(peakFIFO, h.q.fifoEvents())
		}
		h.drain()
		if peakFIFO == 0 || h.heapPushes == 0 {
			t.Fatalf("seed %d: FIFOs peaked at %d events, heap took %d pushes; the test must use both",
				seed, peakFIFO, h.heapPushes)
		}
	}
}

// TestQueueMoreDelaysThanFIFOs runs three times as many periodic timers as
// there are FIFOs, each rescheduling itself with its own period, some
// emitting a fixed-latency delivery, and the population of each period
// growing as the run goes on, so FIFOs run over several chunks and hand
// them on. Every FIFO gets a delay, the delays left over go to the heap, and
// the pop order is the heap's.
func TestQueueMoreDelaysThanFIFOs(t *testing.T) {
	const latency = 1500 * time.Microsecond
	periods := make([]time.Duration, 3*fifoCount)
	for i := range periods {
		periods[i] = time.Duration(3+i) * time.Millisecond
	}
	for _, seed := range []int64{1, 5, 99, 2024} {
		rng := rand.New(rand.NewSource(seed))
		h := &queueHarness{t: t}
		for i, p := range periods {
			h.push(p, int32(i))
		}
		for step := 0; step < 40000; step++ {
			e := h.pop()
			if e.msg < 0 {
				continue // a delivery
			}
			p := periods[e.msg]
			h.push(h.now+p, e.msg)
			if rng.Intn(50) == 0 {
				h.push(h.now+p, e.msg)
			}
			if rng.Intn(3) == 0 {
				h.push(h.now+latency, -1)
			}
		}
		if h.q.used != fifoCount {
			t.Fatalf("seed %d: %d of %d FIFOs assigned", seed, h.q.used, fifoCount)
		}
		if h.q.rest.Len() == 0 {
			t.Fatalf("seed %d: the heap holds nothing, so no delay was left over", seed)
		}
		h.drain()
	}
}

// TestQueueReassignsDrainedFIFO gives every FIFO a delay, drains them all,
// and then pushes a new set of delays: each takes over a drained FIFO, so
// after its first push the heap takes none of them. Every phase is checked
// against the heap.
func TestQueueReassignsDrainedFIFO(t *testing.T) {
	h := &queueHarness{t: t}
	for phase := 0; phase < 5; phase++ {
		delays := make([]time.Duration, fifoCount)
		for i := range delays {
			delays[i] = time.Duration(phase*fifoCount+i+1) * 100 * time.Microsecond
		}
		for _, d := range delays { // the first push of a delay goes to the heap
			h.push(h.now+d, 0)
		}
		heapBefore := h.heapPushes
		for round := 0; round < 50; round++ {
			for _, d := range delays {
				h.push(h.now+d, 0)
			}
			h.pop()
		}
		if h.heapPushes != heapBefore {
			t.Fatalf("phase %d: %d repeated pushes went to the heap, want 0", phase, h.heapPushes-heapBefore)
		}
		for i := 0; i < fifoCount; i++ {
			if f := h.q.fifos[i]; f.d != delays[i] {
				t.Fatalf("phase %d: FIFO %d serves %v, want %v", phase, i, f.d, delays[i])
			}
		}
		h.drain()
	}
}

// TestQueueZeroAndClampedDelays pushes at now and before now, as a
// self-send or a hook scheduled in the past does: the clamp makes all of
// them zero delays, so after the first they share one FIFO, popped in seq
// order among the events of the other delay.
func TestQueueZeroAndClampedDelays(t *testing.T) {
	h := &queueHarness{t: t}
	h.push(time.Millisecond, 0)
	h.push(time.Millisecond, 0)
	h.pop()
	for i := 0; i < 100; i++ {
		switch i % 3 {
		case 0:
			h.push(h.now, 0)
		case 1:
			h.push(h.now-time.Duration(i)*time.Microsecond, 0)
		default:
			h.push(h.now+time.Millisecond, 0)
		}
		if i%4 == 3 {
			h.pop()
		}
	}
	if h.heapPushes != 2 {
		t.Fatalf("%d pushes went to the heap, want 2: the first of each delay", h.heapPushes)
	}
	h.drain()
}

// TestQueueLongHorizon schedules events tens to hundreds of virtual days
// out — a resident horizon timer, a repeating 30-day delay, random far
// delays and ties at one far instant between an event in a FIFO and one in
// the heap — under a stream of millisecond events.
func TestQueueLongHorizon(t *testing.T) {
	day := 24 * time.Hour
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &queueHarness{t: t}
		h.push(400*day, 0)
		var lastAt time.Duration
		for step := 0; step < 6000; step++ {
			switch r := rng.Intn(16); {
			case r < 4:
				h.push(h.now+2*time.Millisecond, 0)
			case r < 6:
				lastAt = h.now + 30*day
				h.push(lastAt, 0)
			case r < 8: // the same instant again, by another delay
				h.push(lastAt, 0)
			case r < 10:
				lastAt = h.now + time.Duration(rng.Int63n(int64(200*day)))
				h.push(lastAt, 0)
			default:
				if h.ref.Len() > 0 {
					h.pop()
				}
			}
		}
		h.drain()
	}
}

// TestQueuePopDue checks popDue with a limit that falls between a FIFO's
// head and the heap's top, with either one earlier: the earlier event pops,
// and the later one stays until a limit reaches it.
func TestQueuePopDue(t *testing.T) {
	const d = 5 * time.Millisecond
	for _, c := range []struct {
		name  string
		other time.Duration // the heap event's delay
	}{{"fifo-first", 7 * time.Millisecond}, {"heap-first", 3 * time.Millisecond}} {
		var q eventQueue
		q.push(event{at: d, seq: 1}, d) // a delay's first push goes to the heap
		if e, ok := q.popDue(d); !ok || e.seq != 1 {
			t.Fatalf("%s: popDue(%v) = (%v, %v), want the first event", c.name, d, e.at, ok)
		}
		now := d
		q.push(event{at: now + d, seq: 2}, d) // the repeat takes a FIFO
		q.push(event{at: now + c.other, seq: 3}, c.other)
		if q.fifoEvents() != 1 || q.rest.Len() != 1 {
			t.Fatalf("%s: FIFOs hold %d, heap %d; want 1 and 1", c.name, q.fifoEvents(), q.rest.Len())
		}
		first, second := now+min(d, c.other), now+max(d, c.other)
		between := (first + second) / 2
		if e, ok := q.popDue(between); !ok || e.at != first {
			t.Fatalf("%s: popDue(%v) = (%v, %v), want %v", c.name, between, e.at, ok, first)
		}
		if e, ok := q.popDue(between); ok {
			t.Fatalf("%s: popDue(%v) returned the event at %v", c.name, between, e.at)
		}
		if e, ok := q.popDue(second); !ok || e.at != second {
			t.Fatalf("%s: popDue(%v) = (%v, %v), want %v", c.name, second, e.at, ok, second)
		}
		if q.Len() != 0 {
			t.Fatalf("%s: queue retains %d events", c.name, q.Len())
		}
	}
}

// capacity counts the event slots of every chunk the queue holds, in its
// FIFOs and on its spare list.
func (q *eventQueue) capacity() int {
	chunks := 0
	for i := 0; i < q.used; i++ {
		for c := q.fifos[i].head; c != nil; c = c.next {
			chunks++
		}
	}
	for c := q.spare; c != nil; c = c.next {
		chunks++
	}
	return chunks * chunkLen
}

// TestQueueCapacityTracksPending drives a burst of k equal-delay events, the
// shape of one heartbeat period's deliveries, through the queue: after it
// drains, the queue holds at most 2k FIFO slots, and a second identical
// burst allocates nothing.
func TestQueueCapacityTracksPending(t *testing.T) {
	const (
		k       = 10000
		latency = time.Millisecond
	)
	h := &queueHarness{t: t}
	burst := func() {
		for i := 0; i < k; i++ {
			h.push(h.now+latency, 0)
		}
		h.drain()
	}
	burst()
	if capacity := h.q.capacity(); capacity == 0 || capacity > 2*k {
		t.Fatalf("the queue holds %d FIFO slots after a burst of %d, want 1..%d", capacity, k, 2*k)
	}
	if allocs := testing.AllocsPerRun(1, burst); allocs != 0 {
		t.Fatalf("a second burst allocated %v times, want 0", allocs)
	}
}
