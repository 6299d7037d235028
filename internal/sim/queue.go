package sim

import "time"

// eventQueue is the kernel's pending-event structure: a few constant-delay
// FIFOs in front of a binary heap, popped in the exact (at, seq) total order
// of the heap alone.
//
// Why FIFOs: almost every event the simulator schedules fires a constant
// delay after it is scheduled. A detector is a set of timers of one period
// plus messages over links of one latency, so a run's pushes repeat a handful
// of delays. Events pushed with one delay d at non-decreasing times now are
// already sorted: at = now + d never decreases and seq always increases, so
// appending them to a FIFO keeps them in (at, seq) order with no comparison
// at all. A push is then an append, a pop is the earliest of a few FIFO heads
// and the heap's top, and the queue holds one list of chunks per delay
// instead of a structure over every pending event.
//
// Policy, all constants: a delay gets a FIFO when it repeats, that is when
// it is pushed again while among the last seenSize distinct delays sent to
// the heap; there are fifoCount FIFOs, picked by a linear scan; a drained
// FIFO can be reassigned to a new delay. Every other event — a random link
// latency, a one-off hook, a far-future horizon — goes to the heap, which
// therefore holds only that residue. The caller must never push with a
// smaller now than an earlier push (the kernel's clock never goes back), or
// a FIFO would lose its order; the kernel's POP ORDER VIOLATION panic is the
// runtime check.
type eventQueue struct {
	fifos [fifoCount]fifo
	// fifos[:used] have been assigned a delay at some point.
	used int
	rest eventHeap
	// spare lists the chunks no FIFO is using, kept for the FIFOs' next
	// growth while the run lasts: the chunks number the FIFOs' peak, and a
	// finished kernel drops them with the rest of the queue (see
	// Kernel.freeDispatch).
	spare *chunk
	// seen is a ring of the latest distinct delays pushed to the heap, next
	// its oldest entry. They are stored complemented, so the zero value
	// (delay −1) matches no real delay.
	seen [seenSize]time.Duration
	next int
	size int
}

const (
	// fifoCount bounds the delays served by FIFOs. A detector population
	// uses two or three (its period, its link latency, zero for self-sends);
	// a replicated log a few more for its retransmit and poll timers.
	fifoCount = 8
	seenSize  = 16
)

// fifo holds the events pushed with one delay d, oldest first, in a list of
// chunks: head.es[hi:], the chunks after head, and tail.es[:ti].
type fifo struct {
	d          time.Duration
	head, tail *chunk
	hi, ti     int
	n          int
}

// chunk is a fixed block of a FIFO's events. A chunk its FIFO has served goes
// to the queue's spare list, so the chunks number what the FIFOs held at
// their peak, together, and a FIFO grows without copying an event.
type chunk struct {
	next *chunk // first, so the collector scans one word of a chunk
	es   [chunkLen]event
}

// chunkLen fills a chunk to the 2 KB size class.
const chunkLen = 63

// append adds e at f's tail.
func (q *eventQueue) append(f *fifo, e event) {
	if f.tail == nil || f.ti == chunkLen {
		c := q.spare
		if c != nil {
			q.spare, c.next = c.next, nil
		} else {
			c = new(chunk)
		}
		if f.tail == nil {
			f.head = c
		} else {
			f.tail.next = c
		}
		f.tail, f.ti = c, 0
	}
	f.tail.es[f.ti] = e
	f.ti++
	f.n++
}

// take removes and returns f's oldest event. Only valid when f.n > 0.
func (q *eventQueue) take(f *fifo) event {
	e := f.head.es[f.hi]
	f.hi++
	f.n--
	switch {
	case f.n == 0: // refill the one chunk left from its start
		f.hi, f.ti = 0, 0
	case f.hi == chunkLen:
		c := f.head
		f.head, f.hi = c.next, 0
		c.next, q.spare = q.spare, c
	}
	return e
}

func (q *eventQueue) Len() int { return q.size }

// push files e, scheduled d after the caller's current time.
func (q *eventQueue) push(e event, d time.Duration) {
	q.size++
	free := -1
	for i := 0; i < q.used; i++ {
		f := &q.fifos[i]
		if f.d == d {
			q.append(f, e)
			return
		}
		if f.n == 0 && free < 0 {
			free = i
		}
	}
	if !q.repeated(d) {
		q.rest.push(e)
		return
	}
	if q.used < fifoCount {
		free = q.used
		q.used++
	}
	if free < 0 {
		q.rest.push(e)
		return
	}
	q.fifos[free].d = d
	q.append(&q.fifos[free], e)
}

// repeated reports whether d is among the last seenSize distinct delays
// pushed to the heap, and records it there if not.
func (q *eventQueue) repeated(d time.Duration) bool {
	for _, s := range q.seen {
		if s == ^d {
			return true
		}
	}
	q.seen[q.next] = ^d
	q.next = (q.next + 1) % seenSize
	return false
}

// popDue pops the earliest pending event if it is at or before limit. Only
// valid when Len() > 0.
func (q *eventQueue) popDue(limit time.Duration) (event, bool) {
	// src is the FIFO holding the earliest event, or −1 for the heap; the
	// sentinel loses to every event when the heap is empty.
	best, src := event{at: 1<<63 - 1, seq: 1<<64 - 1}, -1
	if q.rest.Len() > 0 {
		best = q.rest.peek()
	}
	for i := 0; i < q.used; i++ {
		if f := &q.fifos[i]; f.n > 0 && eventBefore(f.head.es[f.hi], best) {
			best, src = f.head.es[f.hi], i
		}
	}
	if best.at > limit {
		return event{}, false
	}
	q.size--
	if src < 0 {
		return q.rest.pop(), true
	}
	return q.take(&q.fifos[src]), true
}
