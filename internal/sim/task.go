package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
)

type taskState uint8

const (
	taskRunnable taskState = iota
	taskRunning
	taskParked
	taskDone
)

// task is one cooperative thread of a simulated process: a step task, run
// as a callback on the dispatch loop. Exactly one task in the whole kernel
// runs at a time, and only between events, so runs are deterministic. A
// task's step runs when the dispatch loop selects it, returns the dsys.Wait
// it parks on — in its matcher's lanes, with one timer for a timed wait or a
// sleep — and runs again, with the message that woke it, when the loop
// next selects it. A task spawned with Spawn is a step task whose one step
// runs its body.
type task struct {
	id   int
	name string
	p    *proc
	// prev and next link the process's task list (proc.first) in creation
	// order.
	prev, next *task
	// step is the task's body, called once per resumption.
	step dsys.StepFunc

	// h is the task's slot in the kernel's task table, the handle its timer
	// events name it by (see Kernel.tasks).
	h int32
	// wakeSlot is the arena handle under wakeMsg while a delivered or taken
	// message waits for the step to run; -1 when none. The arena reference is
	// held until the step returns.
	wakeSlot int32
	// Park bookkeeping. parkGen distinguishes park sessions so a stale
	// timer cannot wake a later park. While the task waits for a message,
	// match holds its matcher and the task sits in the process's dispatch
	// lanes: parkKids holds the kind ids of a dsys.KindMatcher — the
	// matcher's own slice, so parking allocates nothing — and the task sits
	// in the lane of each; parkAny marks the generic lane instead.
	parkGen  uint32
	match    dsys.Matcher
	parkKids []int32
	wakeMsg  *dsys.Message
	// The one-byte fields come last, so the record packs into 128 bytes.
	parkAny bool
	state   taskState
}

// kindLane is the ordered set of tasks of one process parked on one message
// kind. Lanes are created on first use and kept for the life of the process
// (message kinds are a small static set), so parking and unparking touch no
// map at all.
type kindLane struct{ tasks []*task }

// bufEntry is one buffered message: the arena handle of its slot and its
// interned kind id. A taken entry leaves slot == -1 (a hole). The entry owns
// one arena reference until it is taken or the process crashes.
type bufEntry struct {
	slot int32
	kid  int32
}

// proc is the simulator's view of one process.
type proc struct {
	k   *Kernel
	id  dsys.ProcessID
	rng *rand.Rand

	// Receive buffer: messages no task has matched yet, in arrival order.
	// Taken messages leave a hole that compactBuf squeezes out once holes
	// dominate. byKid indexes the live entries by interned kind id; its
	// index queues may hold stale (hole) positions, which readers skip
	// lazily.
	buf     []bufEntry
	bufDead int       // number of holes in buf
	byKid   [][]int32 // kind id -> ascending buf indices

	// Parked-task dispatch lanes, both in task-creation (id) order.
	// kindLanes holds tasks waiting on message kinds (indexed by interned
	// kind id); anyParked holds tasks waiting on an arbitrary predicate.
	// Tasks parked in Sleep are in neither lane — no message can wake them.
	kindLanes []*kindLane
	anyParked []*task

	// first and last end the list of the process's unfinished tasks, in
	// creation order; a task leaves it the moment it finishes.
	first, last *task
	crashed     bool
}

// randSrc returns the process-local random source, seeding it on first use
// (see Kernel.netRand for why laziness is safe and worthwhile).
func (p *proc) randSrc() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.k.cfg.Seed ^ int64(0x9e3779b97f4a7c15*uint64(p.id))))
	}
	return p.rng
}

// bufAdd appends a delivered message to the receive buffer and its kind
// index, taking over the delivery's arena reference.
func (p *proc) bufAdd(h, kid int32) {
	p.buf = append(p.buf, bufEntry{slot: h, kid: kid})
	for int(kid) >= len(p.byKid) {
		p.byKid = append(p.byKid, nil)
	}
	p.byKid[kid] = append(p.byKid[kid], int32(len(p.buf)-1))
}

// takeAt removes buf[i], leaving a hole, and returns the message still in
// its arena slot plus the slot handle; the caller inherits the entry's arena
// reference and must unref when done with the message. Stale
// index entries pointing at the hole are skipped lazily; compactBuf reclaims
// the holes themselves.
func (p *proc) takeAt(i int) (*dsys.Message, int32) {
	h := p.buf[i].slot
	p.buf[i] = bufEntry{slot: -1}
	p.bufDead++
	p.compactBuf()
	return &p.k.arena.slot(h).m, h
}

// takeKid removes and returns the oldest buffered message of the given kind
// — the O(1) fast path of receive dispatch.
func (p *proc) takeKid(kid int32) (*dsys.Message, int32) {
	if int(kid) >= len(p.byKid) {
		return nil, -1
	}
	q := p.byKid[kid]
	for len(q) > 0 {
		i := q[0]
		q = q[1:]
		if p.buf[i].slot >= 0 {
			p.byKid[kid] = q
			return p.takeAt(int(i))
		}
	}
	if q != nil {
		p.byKid[kid] = q
	}
	return nil, -1
}

// takeKids removes and returns the earliest-arrived buffered message among
// the given kinds — the message an arrival-order scan with the equivalent
// predicate would take.
func (p *proc) takeKids(kids []int32) (*dsys.Message, int32) {
	if len(kids) == 1 {
		return p.takeKid(kids[0])
	}
	best := int32(-1)
	var bestKid int32
	for _, kid := range kids {
		if int(kid) >= len(p.byKid) {
			continue
		}
		q := p.byKid[kid]
		for len(q) > 0 && p.buf[q[0]].slot < 0 {
			q = q[1:]
		}
		p.byKid[kid] = q
		if len(q) > 0 && (best < 0 || q[0] < best) {
			best, bestKid = q[0], kid
		}
	}
	if best < 0 {
		return nil, -1
	}
	p.byKid[bestKid] = p.byKid[bestKid][1:]
	return p.takeAt(int(best))
}

// takeMatch removes and returns the first buffered message satisfying
// match: by kind index when the matcher declares its kinds, otherwise by
// scanning arrival order.
func (p *proc) takeMatch(match dsys.Matcher) (*dsys.Message, int32) {
	if km, ok := match.(dsys.KindMatcher); ok {
		if p.byKid == nil {
			return nil, -1 // nothing was ever buffered
		}
		return p.takeKids(km.KindIDs())
	}
	for i, e := range p.buf {
		if e.slot >= 0 && match.Match(&p.k.arena.slot(e.slot).m) {
			return p.takeAt(i)
		}
	}
	return nil, -1
}

// compactBuf squeezes the holes out of the buffer once they outnumber the
// live messages, rebuilding the kind index with the shifted positions. Each
// take creates at most one hole and a compaction touching len(buf) entries
// removes more than len(buf)/2 of them, so the amortized cost per take is
// O(1) and buffer memory stays proportional to the live backlog.
func (p *proc) compactBuf() {
	if p.bufDead <= 32 || p.bufDead*2 <= len(p.buf) {
		return
	}
	for i := range p.byKid {
		p.byKid[i] = p.byKid[i][:0]
	}
	live := p.buf[:0]
	for _, e := range p.buf {
		if e.slot >= 0 {
			p.byKid[e.kid] = append(p.byKid[e.kid], int32(len(live)))
			live = append(live, e)
		}
	}
	p.buf = live
	p.bufDead = 0
}

// lane returns the parked-task lane of kind id kid, creating it on first
// use.
func (p *proc) lane(kid int32) *kindLane {
	for int(kid) >= len(p.kindLanes) {
		p.kindLanes = append(p.kindLanes, nil)
	}
	l := p.kindLanes[kid]
	if l == nil {
		l = &kindLane{}
		p.kindLanes[kid] = l
	}
	return l
}

// parkOn registers t in the dispatch lanes its matcher selects: the lane of
// every kind of a dsys.KindMatcher, otherwise the generic lane. A task in
// several kind lanes wins a delivery exactly when it would from the generic
// lane, as the lowest-id parked matching task (see Kernel.deliver). Called
// on the dispatch loop once the task's step has returned.
func (p *proc) parkOn(t *task, match dsys.Matcher) {
	t.match = match
	if km, ok := match.(dsys.KindMatcher); ok {
		t.parkKids = km.KindIDs()
		for _, kid := range t.parkKids {
			lane := p.lane(kid)
			lane.tasks = laneInsert(lane.tasks, t)
		}
		return
	}
	t.parkAny = true
	p.anyParked = laneInsert(p.anyParked, t)
}

// unpark removes t from its dispatch lanes, if it is in any.
func (p *proc) unpark(t *task) {
	for _, kid := range t.parkKids {
		lane := p.kindLanes[kid]
		lane.tasks = laneRemove(lane.tasks, t)
	}
	t.parkKids = nil
	if t.parkAny {
		p.anyParked = laneRemove(p.anyParked, t)
		t.parkAny = false
	}
}

// laneInsert adds t keeping the lane sorted by task id (creation order) —
// the order the old p.tasks scan dispatched in, which the lanes must
// reproduce exactly for runs to stay bit-identical.
func laneInsert(lane []*task, t *task) []*task {
	i := len(lane)
	if i == 0 || lane[i-1].id < t.id {
		return append(lane, t) // empty lane or append at end: the common case
	}
	for i > 0 && lane[i-1].id > t.id {
		i--
	}
	lane = append(lane, nil)
	copy(lane[i+1:], lane[i:])
	lane[i] = t
	return lane
}

func laneRemove(lane []*task, t *task) []*task {
	for i, lt := range lane {
		if lt == t {
			copy(lane[i:], lane[i+1:])
			lane[len(lane)-1] = nil
			return lane[:len(lane)-1]
		}
	}
	return lane
}

// addTask appends t to the process's task list.
func (p *proc) addTask(t *task) {
	t.prev = p.last
	if p.last != nil {
		p.last.next = t
	} else {
		p.first = t
	}
	p.last = t
}

// removeTask unlinks t from the process's task list in O(1), keeping the
// survivors in creation order.
func (p *proc) removeTask(t *task) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		p.first = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		p.last = t.prev
	}
	t.prev, t.next = nil, nil
}

// taskView is the dsys.Proc handle given to a task. Each task gets its own
// view so primitives know which task is calling.
type taskView struct {
	t *task
}

var (
	_ dsys.Proc        = taskView{}
	_ dsys.LoopSpawner = taskView{}
)

func (v taskView) ID() dsys.ProcessID    { return v.t.p.id }
func (v taskView) N() int                { return len(v.t.p.k.procs) }
func (v taskView) All() []dsys.ProcessID { return v.t.p.k.pids }
func (v taskView) Now() time.Duration    { return v.t.p.k.now }
func (v taskView) Rand() *rand.Rand      { return v.t.p.randSrc() }

func (v taskView) Send(to dsys.ProcessID, kind string, payload any) {
	p := v.t.p
	k := p.k
	if p.crashed || k.stopping {
		return
	}
	if to < 1 || int(to) > len(k.procs) {
		panic(fmt.Sprintf("sim: %v sent %q to invalid process %v", p.id, kind, to))
	}
	kid := k.kindID(kind)
	h, s := k.arena.alloc()
	s.m = dsys.Message{From: p.id, To: to, Kind: kind, Payload: payload, SentAt: k.now}
	m := &s.m
	if to == p.id {
		k.cfg.Trace.OnSend(m, false)
		s.refs = 1
		k.scheduleDeliver(k.now+k.cfg.SelfDelay, h, s.gen, kid)
		return
	}
	// Networks supporting duplication deliver one copy per planned latency;
	// the copies share the slot and the last consumed one recycles it.
	if mn, ok := k.cfg.Network.(network.MultiNetwork); ok {
		copies := mn.PlanCopies(p.id, to, kind, k.now, k.netRand())
		k.cfg.Trace.OnSend(m, len(copies) == 0)
		if len(copies) == 0 {
			k.arena.recycle(h, s)
			return
		}
		s.refs = int32(len(copies))
		for _, delay := range copies {
			if delay < 0 {
				delay = 0
			}
			k.scheduleDeliver(k.now+delay, h, s.gen, kid)
		}
		return
	}
	delay, drop := k.cfg.Network.Plan(p.id, to, kind, k.now, k.netRand())
	k.cfg.Trace.OnSend(m, drop)
	if drop {
		k.arena.recycle(h, s)
		return
	}
	if delay < 0 {
		delay = 0
	}
	s.refs = 1
	k.scheduleDeliver(k.now+delay, h, s.gen, kid)
}

// Recv, RecvTimeout and Sleep would suspend the task mid-step, which the
// simulator cannot do: each fails the run (see blocked).
func (v taskView) Recv(dsys.Matcher) (*dsys.Message, bool) { panic(v.t.blocked("Recv")) }

func (v taskView) RecvTimeout(dsys.Matcher, time.Duration) (*dsys.Message, bool) {
	panic(v.t.blocked("RecvTimeout"))
}

func (v taskView) Sleep(time.Duration) { panic(v.t.blocked("Sleep")) }

// Spawn adds a task whose one step runs fn.
func (v taskView) Spawn(name string, fn dsys.TaskFunc) {
	v.t.p.k.spawn(v.t.p, name, fn)
}

// SpawnStep implements dsys.LoopSpawner: the spawned step task runs as a
// callback on the dispatch loop.
func (v taskView) SpawnStep(name string, step dsys.StepFunc) {
	v.t.p.k.spawnStep(v.t.p, name, step)
}

func (v taskView) Logf(format string, args ...any) {
	t := v.t
	k := t.p.k
	if k.cfg.Log == nil {
		return
	}
	fmt.Fprintf(k.cfg.Log, "%10v %v/%s: %s\n", k.now, t.p.id, t.name, fmt.Sprintf(format, args...))
}

// blocked is the error that fails a run whose task called the blocking
// primitive prim: a task waits by returning a dsys.Wait from its step.
func (t *task) blocked(prim string) error {
	return fmt.Errorf("sim: task %v/%s called %s, which blocks; the simulator runs step tasks only, which wait by returning a dsys.Wait", t.p.id, t.name, prim)
}
