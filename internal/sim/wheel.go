package sim

import (
	"math/bits"
	"time"
)

// eventQueue is the kernel's pending-event structure: a hierarchical timing
// wheel (Varghese & Lauck) over virtual time with the exact (at, seq) total
// order of the old binary heap preserved.
//
// Why not just a heap: the simulator's workload is dominated by periodic
// heartbeat timers and short message latencies, so a binary heap pays
// O(log N) per push/pop against a mostly-sorted future of N pending events —
// at n=256 processes the heap holds tens of thousands of timers and the
// log factor is the kernel's hottest cost. The wheel makes push O(1) and pop
// O(1) bitmap probes plus O(log s) where s is the population of one level-0
// slot (almost always a handful of events).
//
// Structure: a wide level 0 of 256 one-tick slots (tick = 1<<wheelTickBits ns
// ≈ 8.2µs, so level 0 spans ≈ 2.1ms — wide enough that the millisecond-scale
// timers and latencies of the experiments file straight into level 0 and
// never cascade), topped by wheelLevels levels of 64 slots whose widths grow
// by 64× per level. An event is filed at the lowest level whose current
// rotation reaches the event's tick — concretely, the lowest level where the
// event and the frontier share the enclosing parent slot, so every slot
// holds exactly one rotation and never mixes epochs. Events beyond the top
// level's horizon (≈ 26 virtual days) go to an overflow heap. As the
// frontier advances, higher-level slots cascade: their events are re-filed
// and strictly descend one or more levels until they reach level 0.
//
// Ordering: `cur` is a small due set holding exactly the events with
// at < curEnd (the end of the level-0 slot currently being drained). The
// global minimum is therefore always cur's minimum: everything outside cur
// is at or beyond curEnd, and newly pushed events below curEnd (the kernel
// clamps at >= now) go straight into cur. Within cur the old heap's
// (at, seq) total order applies unchanged, so pop order — and with it every
// experiment table — is bit-identical to the binary heap's
// (TestWheelMatchesHeapPopOrder proves this on randomized workloads).
//
// Memory: a slot owns a backing array only while it holds events. A drained
// level-0 slot hands its array to the due set, which sorts and serves it in
// place; the due set's exhausted array and a cascaded slot's go to bufPool,
// and place draws from there when a slot takes its first event or outgrows
// its array. The arrays therefore number what the pending events need at
// their peak — not one per slot, each as large as the biggest burst that ever
// crossed it (TestWheelCapacityTracksPending).
type eventQueue struct {
	// cur holds the due events: every pending event with at < curEnd.
	cur    dueSet
	curEnd time.Duration
	// frontier is curEnd in ticks: the first tick not yet drained into cur.
	frontier int64
	// Level 0: one-tick slots, indexed by tick & wheelL0Mask, with a
	// multi-word occupancy bitmap.
	slots0 [wheelL0Slots][]event
	occ0   [wheelL0Slots / 64]uint64
	// levels[li] is level li+1: 64 slots of width 1<<(wheelL0Bits +
	// li*wheelLevelBits) ticks each.
	levels [wheelLevels]wheelLevel
	// overflow holds events beyond the top level's horizon, heap-ordered.
	overflow eventHeap
	size     int
	pool     bufPool
}

const (
	// wheelTickBits sets the level-0 tick to 1<<13 ns ≈ 8.2µs. Experiment
	// time constants are milliseconds, so a tick is fine-grained enough that
	// same-slot collisions stay rare.
	wheelTickBits = 13
	// wheelL0Bits gives level 0 its 256 slots ≈ 2.1ms horizon, sized so that
	// the common millisecond-scale timer files into level 0 directly instead
	// of cascading down from level 1 (one placement, one copy per event).
	wheelL0Bits  = 8
	wheelL0Slots = 1 << wheelL0Bits
	wheelL0Mask  = wheelL0Slots - 1
	// wheelLevelBits gives the upper levels 64 slots, so each level's
	// occupancy fits one uint64 bitmap and "next occupied slot" is a single
	// TrailingZeros64.
	wheelLevelBits = 6
	wheelSlots     = 1 << wheelLevelBits
	wheelSlotMask  = wheelSlots - 1
	// wheelLevels upper levels on top of level 0 cover
	// 2^(wheelL0Bits + wheelLevels*wheelLevelBits) ticks ≈ 26 virtual days.
	wheelLevels = 5
)

// levelShift returns the tick shift of upper level li: a slot of levels[li]
// spans 1<<levelShift(li) ticks.
func levelShift(li int) uint { return uint(wheelL0Bits + li*wheelLevelBits) }

type wheelLevel struct {
	slots [wheelSlots][]event
	// occupied has bit i set iff slots[i] is non-empty.
	occupied uint64
}

func (q *eventQueue) Len() int { return q.size }

// slotCap is the capacity of the smallest slot array, size class 0; class c
// holds slotCap<<c events.
const slotCap = 4

// bufPool holds the event arrays no slot or due set is using, by size class.
// Invariant: every pooled array is empty and has exactly its class's
// capacity. Events hold no pointers, so a served entry needs no zeroing to
// release anything. An array of class c is allocated only when none is free,
// so per class they number at most the peak simultaneous demand, and since a
// slot moves up one class only when full, the classes below a slot's array
// add at most its own capacity again.
type bufPool struct {
	free [bufClasses][][]event
	// arena carves class-0 arrays in chunks, so a run touching a few hundred
	// slots at once pays a handful of allocations instead of one per slot.
	arena []event
}

// bufClasses bounds the size classes; the largest holds slotCap<<31 events.
const bufClasses = 32

// get returns an empty array of class c.
func (p *bufPool) get(c int) []event {
	if f := p.free[c]; len(f) > 0 {
		buf := f[len(f)-1]
		f[len(f)-1] = nil
		p.free[c] = f[:len(f)-1]
		return buf
	}
	if c > 0 {
		return make([]event, 0, slotCap<<c)
	}
	if len(p.arena) < slotCap {
		p.arena = make([]event, 64*slotCap)
	}
	buf := p.arena[:0:slotCap]
	p.arena = p.arena[slotCap:]
	return buf
}

// put takes back an array whose events have been copied elsewhere or served.
func (p *bufPool) put(es []event) {
	if cap(es) == 0 {
		return
	}
	c := bits.Len(uint(cap(es)/slotCap)) - 1
	p.free[c] = append(p.free[c], es[:0])
}

// grown returns the array to continue a full slot in: one class up, holding
// the slot's events, with the outgrown array back in the pool.
func (p *bufPool) grown(es []event) []event {
	if cap(es) == 0 {
		return p.get(0)
	}
	buf := append(p.get(bits.Len(uint(cap(es)/slotCap))), es...)
	p.put(es)
	return buf
}

// push files e by (at, seq); O(1) except for amortized slice growth.
func (q *eventQueue) push(e event) {
	q.size++
	if e.at < q.curEnd {
		q.cur.push(e)
		return
	}
	q.place(e)
}

// place files an event at or beyond the frontier into the wheel or the
// overflow heap. The event belongs at the lowest level whose current
// rotation reaches its tick — determined by the highest bit where tick and
// frontier differ, so one Len64 replaces a level probe loop.
func (q *eventQueue) place(e event) {
	tick := int64(e.at) >> wheelTickBits
	bl := bits.Len64(uint64(tick ^ q.frontier))
	if bl <= wheelL0Bits {
		// Same level-1 parent slot as the frontier: level 0 reaches it.
		slot := tick & wheelL0Mask
		s := &q.slots0[slot]
		if len(*s) == cap(*s) {
			*s = q.pool.grown(*s)
		}
		*s = append(*s, e)
		q.occ0[slot>>6] |= 1 << uint(slot&63)
		return
	}
	li := (bl - wheelL0Bits - 1) / wheelLevelBits
	if li >= wheelLevels {
		q.overflow.push(e)
		return
	}
	slot := (tick >> levelShift(li)) & wheelSlotMask
	s := &q.levels[li].slots[slot]
	if len(*s) == cap(*s) {
		*s = q.pool.grown(*s)
	}
	*s = append(*s, e)
	q.levels[li].occupied |= 1 << uint(slot)
}

// next0 returns the tick of the first occupied level-0 slot at or after the
// frontier, or -1 if level 0 is empty. Level-0 occupancy bits exist only for
// ticks in [frontier, end of the frontier's level-1 window), so the scan
// never has to wrap.
func (q *eventQueue) next0() int64 {
	off := q.frontier & wheelL0Mask
	w := int(off >> 6)
	if m := q.occ0[w] &^ (1<<uint(off&63) - 1); m != 0 {
		return q.frontier&^wheelL0Mask + int64(w<<6+bits.TrailingZeros64(m))
	}
	for w++; w < len(q.occ0); w++ {
		if m := q.occ0[w]; m != 0 {
			return q.frontier&^wheelL0Mask + int64(w<<6+bits.TrailingZeros64(m))
		}
	}
	return -1
}

// drainSlot0 makes the events of the level-0 slot at tick s the due set,
// array and all, and advances the frontier past it.
func (q *eventQueue) drainSlot0(s int64) {
	q.frontier = s + 1
	q.curEnd = time.Duration(q.frontier << wheelTickBits)
	slot := s & wheelL0Mask
	es := q.slots0[slot]
	q.slots0[slot] = nil
	q.occ0[slot>>6] &^= 1 << uint(slot&63)
	q.cur.fill(es)
}

// dueSet is cur's implementation: the due events of the level-0 slot being
// drained, served in exact (at, seq) order. A slot's events were appended in
// seq order, so fill's insertion sort is near-linear, and serving is a head
// index walk — no sift swaps of events, which is what made the old all-heap
// due set the hottest line of send-saturated profiles. The rare event pushed mid-drain for the slot still
// being drained (a sub-tick delay; the kernel clamps at >= now) lands in the
// spill heap and merges in by the same total order, so pop order is
// bit-identical to the old heap's.
type dueSet struct {
	// run is the sorted slot content, in the array the slot collected it in;
	// run[head:] is the unserved remainder.
	run  []event
	head int
	// spill holds events pushed below curEnd after fill, heap-ordered.
	spill eventHeap
}

func (d *dueSet) Len() int { return len(d.run) - d.head + d.spill.Len() }

// push files an event that became due mid-drain.
func (d *dueSet) push(e event) { d.spill.push(e) }

// fill makes one level-0 slot's array the due set, sorting it in place into
// (at, seq) order. Only valid after release (advance's first step).
func (d *dueSet) fill(es []event) {
	d.run = es
	for i := 1; i < len(d.run); i++ {
		e := d.run[i]
		j := i - 1
		for j >= 0 && eventAfter(d.run[j], e) {
			d.run[j+1] = d.run[j]
			j--
		}
		d.run[j+1] = e
	}
}

// release gives up the exhausted run's array. Only valid when Len() == 0.
func (d *dueSet) release() []event {
	es := d.run[:0]
	d.run, d.head = nil, 0
	return es
}

// eventAfter reports whether a fires strictly after b in (at, seq) order.
func eventAfter(a, b event) bool {
	if a.at != b.at {
		return a.at > b.at
	}
	return a.seq > b.seq
}

func (d *dueSet) peek() event {
	if d.head == len(d.run) {
		return d.spill.peek()
	}
	if d.spill.Len() != 0 && eventAfter(d.run[d.head], d.spill.peek()) {
		return d.spill.peek()
	}
	return d.run[d.head]
}

func (d *dueSet) pop() event {
	if d.head == len(d.run) {
		return d.spill.pop()
	}
	if d.spill.Len() != 0 && eventAfter(d.run[d.head], d.spill.peek()) {
		return d.spill.pop()
	}
	e := d.run[d.head]
	d.head++
	return e
}

// straddling reports whether any upper level's slot containing the frontier
// is occupied. Such a slot holds events placed before the frontier entered
// it, possibly at ticks earlier than every occupied level-0 slot, so it must
// cascade before level 0 is drained.
func (q *eventQueue) straddling() bool {
	for li := 0; li < wheelLevels; li++ {
		lv := &q.levels[li]
		if lv.occupied&(1<<uint((q.frontier>>levelShift(li))&wheelSlotMask)) != 0 {
			return true
		}
	}
	return false
}

// overflowBeyondWindow reports whether the overflow heap cannot supply the
// next event while the frontier stays in its current level-1 window: it is
// empty, or its earliest event's tick lies at or beyond that window's end.
// Level-0 slots only ever hold ticks inside the window, so any occupied one
// is then strictly earlier than everything in overflow. Without this check a
// single resident far-future event (a soak run's horizon timer, say) would
// force every advance of the entire run onto the slow path.
func (q *eventQueue) overflowBeyondWindow() bool {
	if q.overflow.Len() == 0 {
		return true
	}
	oTick := int64(q.overflow.peek().at) >> wheelTickBits
	return oTick >= q.frontier&^wheelL0Mask+wheelL0Slots
}

// advance moves the frontier to the next pending event and fills cur with
// its level-0 slot. It must only be called when cur is empty and size > 0.
func (q *eventQueue) advance() {
	// The served array goes back first, so a cascade or a burst placed while
	// the next slot is found can already reuse it.
	q.pool.put(q.cur.release())
	// Fast path: with the overflow heap out of reach and no upper-level slot
	// straddling the frontier, an occupied level-0 slot is always the
	// earliest candidate — every occupied slot of an upper level then lies
	// strictly beyond the frontier's slot of that level and therefore starts
	// at or after the level-0 window's end. This covers the steady state of
	// periodic-timer workloads: each advance is a few bitmap probes.
	if q.overflowBeyondWindow() && !q.straddling() {
		if s := q.next0(); s >= 0 {
			q.drainSlot0(s)
			return
		}
	}
	for {
		// Find the earliest candidate slot across the levels. Scanning from
		// the top level down and preferring strictly earlier candidates
		// makes ties resolve to the highest level, so an overlapping parent
		// slot always cascades before a child slot at the same start is
		// drained — a parent may hold events that belong in that child.
		bestLevel := -1 // upper-level index, or -1 for "level 0 / none"
		var bestSlot, bestStart int64
		for li := wheelLevels - 1; li >= 0; li-- {
			lv := &q.levels[li]
			if lv.occupied == 0 {
				continue
			}
			shift := levelShift(li)
			c := q.frontier >> shift
			// Rotate the bitmap so the current slot is bit 0; the first set
			// bit is then the next occupied slot in rotation order.
			rot := bits.RotateLeft64(lv.occupied, -int(c&wheelSlotMask))
			s := c + int64(bits.TrailingZeros64(rot))
			start := s << shift
			if start < q.frontier {
				// The slot straddles the frontier (s == c): its remaining
				// events lie at or after the frontier.
				start = q.frontier
			}
			if bestLevel < 0 || start < bestStart {
				bestLevel, bestSlot, bestStart = li, s, start
			}
		}
		s0 := q.next0()
		if s0 >= 0 && (bestLevel < 0 || s0 < bestStart) {
			// A level-0 slot is strictly earliest (ties go to the upper
			// level: its slot overlaps this window and must cascade first).
			bestLevel, bestStart = -1, s0
		}
		if bestLevel < 0 && s0 < 0 && q.overflow.Len() == 0 {
			panic("sim: advance on empty event queue")
		}
		if q.overflow.Len() > 0 {
			oTick := int64(q.overflow.peek().at) >> wheelTickBits
			if (bestLevel < 0 && s0 < 0) || oTick <= bestStart {
				// The overflow holds the earliest pending event: advance the
				// frontier to it and pull every overflow event the wheel now
				// reaches back in (they re-file at proper levels).
				q.frontier = oTick
				topShift := levelShift(wheelLevels)
				for q.overflow.Len() > 0 {
					t := int64(q.overflow.peek().at) >> wheelTickBits
					if t>>topShift != q.frontier>>topShift {
						break
					}
					q.place(q.overflow.pop())
				}
				continue
			}
		}
		if bestLevel >= 0 {
			// Cascade: move the frontier to the slot and re-file its events;
			// each lands at least one level lower because it now shares the
			// enclosing parent slot with the frontier.
			q.frontier = bestStart
			lv := &q.levels[bestLevel]
			slot := bestSlot & wheelSlotMask
			es := lv.slots[slot]
			lv.slots[slot] = nil
			lv.occupied &^= 1 << uint(slot)
			for _, e := range es {
				q.place(e)
			}
			q.pool.put(es)
			continue
		}
		// A level-0 slot: its events become the due set.
		q.drainSlot0(bestStart)
		return
	}
}

// peek returns the earliest pending event. Only valid when Len() > 0.
func (q *eventQueue) peek() event {
	if q.cur.Len() == 0 {
		q.advance()
	}
	return q.cur.peek()
}

// pop removes and returns the earliest pending event in (at, seq) order.
// Only valid when Len() > 0.
func (q *eventQueue) pop() event {
	if q.cur.Len() == 0 {
		q.advance()
	}
	q.size--
	return q.cur.pop()
}

// popDue pops the earliest pending event if it is at or before limit; the
// scheduler's fused peek-then-pop, saving the second due-set check per
// event. Only valid when Len() > 0.
func (q *eventQueue) popDue(limit time.Duration) (event, bool) {
	if q.cur.Len() == 0 {
		q.advance()
	}
	if q.cur.peek().at > limit {
		return event{}, false
	}
	q.size--
	return q.cur.pop(), true
}
