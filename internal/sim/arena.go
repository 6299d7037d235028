package sim

import (
	"time"
	"unsafe"
)

// The message arena removes the per-send heap allocation of the kernel's hot
// path and stores each in-flight message once. Every in-flight message lives
// in a slot of a chunked arena addressed by a dense int32 handle; delivery
// events carry the handle (and the slot's generation at scheduling time)
// instead of a pointer, and a slot returns to the free list the moment its
// last reference is gone — reuse is keyed by the event queue's pop, so a
// steady-state workload recycles a bounded working set of slots and
// allocates nothing per message.
//
// One slot per message, not per copy. A slot holds no destination: the
// delivery event carries it. So every copy of one message shares the slot —
// the copies a duplicating network plans for one send, and the sends of one
// step that carry the same kind and the same boxed payload, such as a
// heartbeat to every other process (see Kernel.sendSlot). A burst of n−1
// beats takes one slot where it took n−1.
//
// Materialising. A slot is not a dsys.Message. The kernel builds one from
// the slot plus the destination wherever a *dsys.Message is handed out: to
// the step that receives it, to a generic-lane matcher, and to the trace
// hooks (see Kernel.message). A receiver that writes to its message
// therefore changes no other copy.
//
// Reference protocol. A slot's refs counts the outstanding claims on it:
// one per scheduled delivery copy, transferred on delivery to whatever
// consumes the copy — the receive buffer entry, or the task whose step it
// is handed to. Each claim is released with exactly one unref
// (crashed-destination discard, or the step's return). A step sees the
// message only while it runs (dsys.StepFunc), so a recycled slot can only
// ever be observed by kernel code, which checks generations. At the end of
// a run the only claims left are pending deliveries and buffered messages:
// Run releases those and panics if any slot is still checked out (see
// Kernel.checkLeaks), then drops the arena.
//
// Generations. recycle increments the slot's generation; a delivery event
// whose recorded generation no longer matches its slot's is a stale holder —
// a reference-counting bug — and firing it panics (see Kernel.fire). Chunks
// are fixed-size arrays so slot addresses are stable across arena growth.

const (
	msgChunkBits = 8
	msgChunkSize = 1 << msgChunkBits
	msgChunkMask = msgChunkSize - 1
)

// msgSlot is one arena cell, 40 bytes: everything a message's copies share,
// its recycling generation and its reference count. The kind's name and the
// destination are not stored: the kernel's kind table names kid, and each
// delivery event carries its copy's destination.
type msgSlot struct {
	payload any
	sentAt  time.Duration
	// from is the sender's dsys.ProcessID.
	from int32
	// kid is the interned kind id (dsys.KindID).
	kid  int32
	gen  uint32
	refs int32
}

// samePayload reports whether a and b are the same boxed value: both nil,
// or the same dynamic type and the same data word. It compares identities,
// never the values, so it cannot panic on an uncomparable payload (a slice)
// as == would. A boxed value is never written after boxing, so equal
// identities always mean equal payloads; equal values boxed twice compare
// unequal, which only costs a slot.
func samePayload(a, b any) bool {
	return *(*[2]unsafe.Pointer)(unsafe.Pointer(&a)) == *(*[2]unsafe.Pointer)(unsafe.Pointer(&b))
}

// msgArena is the kernel's slot store. It is single-threaded like the rest
// of the kernel.
type msgArena struct {
	chunks []*[msgChunkSize]msgSlot
	free   []int32
	// used counts slots ever carved from chunks; used - len(free) is the
	// live working set, and used itself is the high-water mark the leak
	// tests bound.
	used int32
}

// slot returns the cell of handle h.
func (a *msgArena) slot(h int32) *msgSlot {
	return &a.chunks[h>>msgChunkBits][h&msgChunkMask]
}

// alloc hands out a free slot, carving a new chunk only when the free list
// is empty and the current chunks are exhausted. The returned slot has
// refs == 0; the caller sets the message and takes references by scheduling
// deliveries.
func (a *msgArena) alloc() (int32, *msgSlot) {
	if n := len(a.free); n > 0 {
		h := a.free[n-1]
		a.free = a.free[:n-1]
		return h, a.slot(h)
	}
	h := a.used
	a.used++
	if int(h>>msgChunkBits) == len(a.chunks) {
		a.chunks = append(a.chunks, new([msgChunkSize]msgSlot))
	}
	return h, a.slot(h)
}

// unref releases one reference to slot h, recycling it when the last one is
// gone.
func (a *msgArena) unref(h int32) {
	s := a.slot(h)
	s.refs--
	switch {
	case s.refs == 0:
		a.recycle(h, s)
	case s.refs < 0:
		panic("sim: message arena reference count went negative")
	}
}

// recycle retires a slot whose references are gone: bump the generation so
// any stale holder is caught, drop the payload so the arena pins no user
// memory, and return the handle to the free list.
func (a *msgArena) recycle(h int32, s *msgSlot) {
	s.gen++
	s.payload = nil
	a.free = append(a.free, h)
}

// live returns the number of slots currently checked out.
func (a *msgArena) live() int { return int(a.used) - len(a.free) }

// capacity returns the total slots ever carved — the arena's high-water
// mark.
func (a *msgArena) capacity() int { return int(a.used) }
