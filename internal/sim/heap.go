package sim

import (
	"time"
)

// eventKind discriminates what an event does when it fires. Every kind
// carries its operands in the event's three integer fields, so an event holds
// no pointer: scheduling one allocates nothing beyond the slot it is filed in,
// and the queue's chunks and heap are memory the collector never scans —
// TestKernelAllocsPerEvent and TestEventIsPointerFree gate both.
type eventKind uint8

const (
	// evFunc runs the pending hook in slot msg of the kernel's hook table —
	// the generic cold path (harness hooks, crashes, Every).
	evFunc eventKind = iota
	// evDeliver delivers the message in arena slot msg to process kid.
	evDeliver
	// evSleep wakes the task with handle (msg, kid) if it is still parked in
	// park generation gen.
	evSleep
	// evTimeout is evSleep plus marking the wake as a timeout expiry.
	evTimeout
)

// event is a scheduled kernel action: a message delivery, a timer wake-up, a
// crash, or a harness hook. Events fire in (at, seq) order, so simultaneous
// events fire in scheduling order, which keeps runs deterministic.
type event struct {
	at  time.Duration
	seq uint64
	// msg is an index whose table depends on the kind: the arena handle of
	// an evDeliver's in-flight message, the task-table slot of a timer's task
	// (see Kernel.tasks), or the hook-table slot of an evFunc.
	msg int32
	// kid is an evDeliver's destination process — the one thing its copy
	// does not share with the other copies in the arena slot — and a
	// timer's task id, truncated, as the generation
	// of its task-table slot: a timer left by a finished task names an id
	// the slot no longer holds, so it cannot wake the task that reuses the
	// slot (wrapping would need 2^32 tasks spawned while the timer is
	// pending).
	kid int32
	// gen guards the two other recycling schemes: for evSleep/evTimeout it
	// is the park generation (a stale timer for an earlier park is ignored),
	// for evDeliver the arena slot generation at scheduling time (a mismatch
	// at fire is a stale holder and panics). uint32 keeps the event at 32
	// bytes (wrapping would need 2^32 parks of one task, or recycles of one
	// slot, in a single run — orders of magnitude beyond the longest soak);
	// events flow through the queue's chunks and heap by value, so their
	// size is a direct memory-bandwidth and allocation cost.
	gen  uint32
	kind eventKind
}

// eventHeap is a binary min-heap of events ordered by (at, seq). It is
// implemented directly (rather than via container/heap) to avoid interface
// boxing on the simulator's hottest path, and it stores events by value so
// the only steady-state allocation is the amortized slice growth.
type eventHeap struct {
	es []event
}

func (h *eventHeap) Len() int { return len(h.es) }

func (h *eventHeap) less(i, j int) bool { return eventBefore(h.es[i], h.es[j]) }

// eventBefore reports whether a fires strictly before b in (at, seq) order.
func eventBefore(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.es[i], h.es[parent] = h.es[parent], h.es[i]
		i = parent
	}
}

func (h *eventHeap) peek() event { return h.es[0] }

func (h *eventHeap) pop() event {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.es) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.es) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.es[i], h.es[smallest] = h.es[smallest], h.es[i]
		i = smallest
	}
	return top
}
