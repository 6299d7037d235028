package sim

import "repro/internal/dsys"

// The message arena removes the per-send heap allocation of the kernel's hot
// path. Every in-flight message lives in a slot of a chunked arena addressed
// by a dense int32 handle; delivery events carry the handle (and the slot's
// generation at scheduling time) instead of a pointer, and a slot returns to
// the free list the moment its last reference is gone — reuse is keyed by
// the event queue's pop, so a steady-state workload recycles a bounded
// working set of slots and allocates nothing per message.
//
// Reference protocol. A slot's refs counts the outstanding claims on it:
// one per scheduled delivery copy (duplicating networks schedule several
// copies of one send), transferred on delivery to whatever consumes the
// copy — the receive buffer entry, or the task whose step it is handed to.
// Each claim is released with exactly one unref (crashed-destination
// discard, or the step's return). A step sees the message only while it
// runs (dsys.StepFunc), so a recycled slot can only ever be observed by
// kernel code, which checks generations.
//
// Generations. release increments the slot's generation; a delivery event
// whose recorded generation no longer matches its slot's is a stale holder —
// a reference-counting bug — and firing it panics (see Kernel.fire). Chunks
// are fixed-size arrays so slot addresses are stable across arena growth.

const (
	msgChunkBits = 8
	msgChunkSize = 1 << msgChunkBits
	msgChunkMask = msgChunkSize - 1
)

// msgSlot is one arena cell: the message by value, its recycling generation
// and its reference count.
type msgSlot struct {
	m    dsys.Message
	gen  uint32
	refs int32
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
	s.m = dsys.Message{}
	a.free = append(a.free, h)
}

// live returns the number of slots currently checked out.
func (a *msgArena) live() int { return int(a.used) - len(a.free) }

// capacity returns the total slots ever carved — the arena's high-water
// mark.
func (a *msgArena) capacity() int { return int(a.used) }
