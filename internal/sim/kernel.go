// Package sim is a deterministic discrete-event simulator for asynchronous
// message-passing distributed algorithms.
//
// Algorithms run as step tasks (dsys.StepFunc): resumable state machines
// that take one step per message or timer and return what they wait for
// next (dsys.Wait), the shape of the paper's "wait until ..." and of an I/O
// automaton. The receive and tick loops dsys.SpawnRecvLoop and SpawnTickLoop
// build are step tasks too. The kernel runs every step as a callback on its
// dispatch loop, on the Run goroutine: exactly one task runs at a time, and
// only between events; simultaneous events fire in scheduling order, and
// all randomness flows from a single seed. Two runs with the same
// configuration are therefore bit-identical, which makes the experiments in
// EXPERIMENTS.md reproducible and the property tests exact. A task cannot
// suspend mid-step: the blocking primitives of dsys.Proc — Recv,
// RecvTimeout and Sleep, which the live runtime implements — fail the run,
// and Spawn runs its body once, as a single step. A finished task is dropped
// by the kernel at once, so a run's memory tracks its pending events and
// unfinished tasks; once Run returns, it keeps only the run's results (see
// Kernel.Run).
//
// Virtual time is a time.Duration since the start of the run. Timers,
// message latencies and crashes are events, popped in (at, seq) order; when
// no task is runnable the clock jumps to the next event. Almost every event
// fires a constant delay after it is scheduled — a timer period, a fixed
// link latency — so the queue keeps such events in a few constant-delay
// FIFOs, already in order, and only the rest in a heap (see eventQueue).
package sim

import (
	"fmt"
	"io"
	"math/rand"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/trace"
)

// totalEvents accumulates events fired by every kernel in the process; each
// Run flushes its local counter here when it finishes. The experiment harness
// reads the delta around an experiment to report events/sec.
var totalEvents atomic.Uint64

// TotalEvents returns the number of simulator events fired across all
// completed kernel runs in this process.
func TotalEvents() uint64 { return totalEvents.Load() }

// Config parameterizes a simulation.
type Config struct {
	// N is the number of processes (p1..pN).
	N int
	// Network models link latency and loss. Required.
	Network network.Network
	// Seed drives all randomness in the run.
	Seed int64
	// Trace receives message and crash events. Optional.
	Trace *trace.Collector
	// Log receives task debug output (Proc.Logf). Optional.
	Log io.Writer
}

// Kernel is the simulation engine. Create with New, add initial tasks with
// SpawnStep (or Spawn, for a body that runs once), inject faults with
// CrashAt, then call Run. Kernel is not safe for concurrent use: Run
// executes the dispatch loop, every task step and every hook on the calling
// goroutine, and starts no other.
//
// Events hold no pointers (see event): a timer names its task by a handle
// into the task table, and a hook event its closure by a slot of the hook
// table. A task leaves the task table and its process's task list the moment
// it finishes, and a hook its slot the moment it fires.
type Kernel struct {
	cfg    Config
	now    time.Duration
	until  time.Duration
	seq    uint64
	taskID int
	eq     eventQueue
	arena  msgArena
	// runq is a head-indexed FIFO: popped entries advance runqHead (nilling
	// the slot) and the slice resets to [:0] when drained, so the backing
	// array is reused instead of crawling forward and reallocating on every
	// append (the runq = runq[1:] pattern this replaces was a steady
	// growslice source in profiles).
	runq     []*task
	runqHead int
	procs    []*proc
	pids     []dsys.ProcessID
	netRNG   *rand.Rand
	events   uint64
	// tasks is the task table: slot h holds the unfinished task with handle
	// h. A timer names its task by the slot and the task's id, which serves
	// as the slot's generation: a timer left by a finished task can never
	// wake a later task reusing the slot.
	tasks table[*task]
	// hooks holds the closures of pending evFunc events.
	hooks table[func()]
	// lastKind/lastKid memoize the most recent Send kind's interned id.
	// Everything that sends runs on the Run goroutine, so a plain field is
	// race-free, and a protocol's
	// sends are overwhelmingly runs of one kind — this turns dsys.KindID's
	// two map lookups per send into a string compare of equal literals.
	lastKind string
	lastKid  int32
	// kindNames names every kind id this kernel has sent (kid → kind),
	// filled by kindID: arena slots hold the id only.
	kindNames []string
	// share is the arena handle of the running step's latest send, which
	// the step's next send of the same message reuses (see sendSlot); -1
	// outside a step and before the step's first send.
	share int32
	// msg is the message the kernel has materialised last (see message):
	// the one the running step was handed, or the one a generic-lane
	// matcher is looking at between steps.
	msg dsys.Message
	// stopping marks the end of the run: spawns and sends become no-ops.
	stopping bool
	ran      bool
	fatal    error
}

// New creates a kernel for cfg.
func New(cfg Config) *Kernel {
	if cfg.N < 1 {
		panic("sim: Config.N must be at least 1")
	}
	if cfg.Network == nil {
		panic("sim: Config.Network is required")
	}
	k := &Kernel{
		cfg:   cfg,
		pids:  dsys.Pids(cfg.N),
		share: -1,
	}
	k.procs = make([]*proc, cfg.N)
	for i := range k.procs {
		k.procs[i] = &proc{k: k, id: dsys.ProcessID(i + 1)}
	}
	return k
}

// netRand returns the network randomness source, seeding it on first use.
// Seeding a math/rand source fills a 607-word state table — too expensive to
// pay n+1 times up front in New when many runs (and benchmarked kernel
// constructions) never draw a network or process random number. Laziness
// cannot affect determinism: the seed depends only on the configuration, and
// the draw order is unchanged.
func (k *Kernel) netRand() *rand.Rand {
	if k.netRNG == nil {
		k.netRNG = rand.New(rand.NewSource(k.cfg.Seed))
	}
	return k.netRNG
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Events returns the number of events this kernel has fired so far.
func (k *Kernel) Events() uint64 { return k.events }

// N returns the number of processes.
func (k *Kernel) N() int { return k.cfg.N }

// Spawn adds to process id a task whose one step runs fn: fn must not call
// the blocking primitives. It may be called before Run (initial tasks) or
// from harness hooks during the run.
func (k *Kernel) Spawn(id dsys.ProcessID, name string, fn dsys.TaskFunc) {
	k.spawn(k.procAt(id), name, fn)
}

// SpawnStep adds a step task to process id (see dsys.SpawnStep). It may be
// called before Run or from harness hooks during the run.
func (k *Kernel) SpawnStep(id dsys.ProcessID, name string, step dsys.StepFunc) {
	k.spawnStep(k.procAt(id), name, step)
}

// SpawnRecvLoop adds a receive loop to process id (see dsys.SpawnRecvLoop).
func (k *Kernel) SpawnRecvLoop(id dsys.ProcessID, name string, fn dsys.RecvLoopFunc, kinds ...string) {
	k.SpawnStep(id, name, dsys.RecvLoopStep(fn, kinds...))
}

// SpawnTickLoop adds a periodic loop to process id (see dsys.SpawnTickLoop).
func (k *Kernel) SpawnTickLoop(id dsys.ProcessID, name string, loop dsys.TickLoop) {
	k.SpawnStep(id, name, dsys.TickLoopStep(loop))
}

func (k *Kernel) spawn(p *proc, name string, fn dsys.TaskFunc) {
	k.spawnStep(p, name, func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
		fn(p)
		return dsys.Finished
	})
}

// spawnStep gives a new step task its id and handle, appends it to its
// process's task list and queues it to run.
func (k *Kernel) spawnStep(p *proc, name string, step dsys.StepFunc) {
	if k.stopping || p.crashed {
		return
	}
	k.taskID++
	t := &task{id: k.taskID, name: name, p: p, step: step, wakeSlot: -1}
	t.h = k.tasks.add(t)
	p.addTask(t)
	k.runq = append(k.runq, t)
}

// finish retires t: it leaves its process's task list and the task table at
// once, orphaning any timer it left pending.
func (k *Kernel) finish(t *task) {
	t.state = taskDone
	t.match = nil
	t.p.removeTask(t)
	k.tasks.remove(t.h)
}

// table holds values under int32 handles, so that events can name them
// without a pointer. A removed value's handle is reused by the next add, so
// the table is as long as the most values it ever held at once.
type table[T any] struct {
	slots []T
	free  []int32
}

func (tb *table[T]) add(v T) int32 {
	if n := len(tb.free); n > 0 {
		h := tb.free[n-1]
		tb.free = tb.free[:n-1]
		tb.slots[h] = v
		return h
	}
	tb.slots = append(tb.slots, v)
	return int32(len(tb.slots) - 1)
}

// remove vacates slot h and returns the value it held.
func (tb *table[T]) remove(h int32) T {
	v := tb.slots[h]
	var zero T
	tb.slots[h] = zero
	tb.free = append(tb.free, h)
	return v
}

// CrashAt schedules a permanent crash of process id at time at. All tasks of
// the process are unwound, in-flight messages to it are discarded on
// arrival, and it never sends again. Crashing an already-crashed process is
// a no-op.
func (k *Kernel) CrashAt(id dsys.ProcessID, at time.Duration) {
	k.beforeEnd("CrashAt")
	p := k.procAt(id)
	k.scheduleEvent(at, func() { k.crash(p) })
}

// ScheduleFunc runs fn on the kernel at virtual time at. fn must not block;
// it is intended for harness hooks such as sampling detector output or
// injecting load. fn runs before any task scheduled at the same instant.
func (k *Kernel) ScheduleFunc(at time.Duration, fn func(now time.Duration)) {
	k.beforeEnd("ScheduleFunc")
	k.scheduleEvent(at, func() { fn(k.now) })
}

// Every runs fn at start, start+period, start+2·period, ... for the rest of
// the run.
func (k *Kernel) Every(start, period time.Duration, fn func(now time.Duration)) {
	k.beforeEnd("Every")
	if period <= 0 {
		panic("sim: Every period must be positive")
	}
	var tick func()
	next := start
	tick = func() {
		fn(k.now)
		next += period
		k.scheduleEvent(next, tick)
	}
	k.scheduleEvent(start, tick)
}

// beforeEnd panics if the run is over: an event scheduled then could never
// fire, and the queue it would go to has been given back.
func (k *Kernel) beforeEnd(op string) {
	if k.stopping {
		panic("sim: " + op + " called after Run")
	}
}

// Crashed reports whether process id has crashed.
func (k *Kernel) Crashed(id dsys.ProcessID) bool { return k.procAt(id).crashed }

// Correct returns the processes that have not crashed (so far).
func (k *Kernel) Correct() []dsys.ProcessID {
	// Preallocated to n: experiment sampling hooks call this every few
	// virtual milliseconds, so the append-from-nil growth pattern showed up
	// in allocs/event profiles.
	out := make([]dsys.ProcessID, 0, len(k.procs))
	for _, p := range k.procs {
		if !p.crashed {
			out = append(out, p.id)
		}
	}
	return out
}

// Run executes the simulation until virtual time `until`, until no event or
// runnable task remains (quiescence), or until a task panics or calls a
// blocking primitive — in which case Run panics with the task's error and
// stack. Run then finishes every remaining task and returns the final
// virtual time. Run may be called only once.
//
// A run that did not fail ends with a leak check: every reference on the
// message arena must be held by a pending delivery or a buffered message,
// and no task may be left in the task table; otherwise Run panics. Then the
// kernel gives back its dispatch machinery, pending events and buffered
// messages included, so a caller that keeps the kernel, or a dsys.Proc of
// one of its tasks, keeps only the results: Now, Events, N, Crashed and
// Correct read as they did when the run ended. CrashAt, ScheduleFunc and
// Every panic after Run, and Spawn and Send do nothing.
func (k *Kernel) Run(until time.Duration) time.Duration {
	if k.ran {
		panic("sim: Run called twice")
	}
	k.ran = true
	k.until = until
	defer func() { totalEvents.Add(k.events) }()
	k.dispatch()
	k.finishAll()
	if k.fatal == nil {
		k.checkLeaks()
	}
	k.freeDispatch()
	if k.fatal != nil {
		panic(k.fatal)
	}
	return k.now
}

// checkLeaks releases the arena reference of every pending delivery and
// buffered message, draining the queue, and panics unless that empties the
// arena and the task table is empty too. A missed unref, or a slot never
// recycled, leaves a slot checked out; a task that finished without leaving
// the table leaves its slot occupied.
func (k *Kernel) checkLeaks() {
	for _, t := range k.tasks.slots {
		if t != nil {
			panic(fmt.Sprintf("sim: TASK LEAK: task %v/%s is still in the task table after the run", t.p.id, t.name))
		}
	}
	for k.eq.Len() > 0 {
		ev, _ := k.eq.popDue(1<<63 - 1)
		if ev.kind != evDeliver {
			continue
		}
		if s := k.arena.slot(ev.msg); s.gen != ev.gen {
			panic(fmt.Sprintf("sim: pending delivery names recycled arena slot %d (slot gen %d, event gen %d)", ev.msg, s.gen, ev.gen))
		}
		k.arena.unref(ev.msg)
	}
	for _, p := range k.procs {
		for _, e := range p.buf {
			if e.slot >= 0 {
				k.arena.unref(e.slot)
			}
		}
	}
	if live := k.arena.live(); live != 0 {
		panic(fmt.Sprintf("sim: ARENA LEAK: %d message slots are checked out with no pending delivery or buffered message holding them", live))
	}
}

// freeDispatch gives back everything only the dispatch loop could use: the
// event queue, the message arena, the task and hook tables, the run queue,
// the processes' buffers and lanes, the last materialised message (which
// would pin its payload) and the network's random source.
func (k *Kernel) freeDispatch() {
	k.eq = eventQueue{}
	k.arena = msgArena{}
	k.tasks, k.hooks = table[*task]{}, table[func()]{}
	k.runq, k.runqHead = nil, 0
	for _, p := range k.procs {
		p.dropBuffers()
	}
	k.msg, k.netRNG = dsys.Message{}, nil
}

// runqKeep is the largest runq capacity a drained runq keeps. A set-up
// burst spawns every process's tasks at once — thousands at large n — and
// afterwards a handful of tasks are runnable at a time, so an array sized for
// the burst would otherwise stay allocated for the whole run.
const runqKeep = 1024

// dispatch runs the scheduler loop until the run is over (quiescence,
// deadline, or a fatal task panic): runq in FIFO order first, then the
// earliest pending event. A selected task's step runs right here.
func (k *Kernel) dispatch() {
	for k.fatal == nil {
		if k.runqHead < len(k.runq) {
			t := k.runq[k.runqHead]
			k.runq[k.runqHead] = nil
			k.runqHead++
			if k.runqHead == len(k.runq) {
				k.runq = k.runq[:0]
				if cap(k.runq) > runqKeep {
					k.runq = nil
				}
				k.runqHead = 0
			}
			if t.state == taskRunnable {
				k.runStep(t)
			}
			continue
		}
		if k.eq.Len() == 0 {
			return // quiescent
		}
		ev, ok := k.eq.popDue(k.until)
		if !ok {
			k.now = k.until
			return
		}
		if ev.at > k.now {
			k.now = ev.at
		} else if ev.at < k.now {
			panic(fmt.Sprintf("sim: POP ORDER VIOLATION: event at %v popped at now=%v", ev.at, k.now))
		}
		k.events++
		if t := k.fire(ev); t != nil {
			// The event woke exactly one task. With an empty runq the next
			// loop iteration would select it immediately — skip the queue
			// round-trip and run it here (same order, less bookkeeping).
			if k.runqHead == len(k.runq) {
				k.runStep(t)
				continue
			}
			k.runq = append(k.runq, t)
		}
	}
}

// runStep executes one scheduling turn of task t: it resumes the step
// function with the message that woke it (nil at its first step and after
// a timeout or sleep) and follows each Wait the step returns. A buffered
// match is taken and stepped on at once (so a woken receive loop drains
// every buffered match in one turn), a non-positive timeout steps on at once
// with no message, a sleep parks on one evSleep scheduled after the step
// returned, and otherwise the task parks in its matcher's lanes with one
// evTimeout for a positive timeout. The message a step is handed is
// materialised from its arena slot, which it keeps until that step returns.
// No events fire and no other task runs while the step executes. A
// panicking step fails the run.
func (k *Kernel) runStep(t *task) {
	t.state = taskRunning
	defer func() {
		if r := recover(); r != nil {
			if k.fatal == nil {
				k.fatal = fmt.Errorf("sim: task %v/%s panicked: %v\n%s", t.p.id, t.name, r, debug.Stack())
			}
			k.share = -1
			k.release(t)
			k.finish(t)
		}
	}()
	v := taskView{t}
	for {
		var m *dsys.Message
		if t.wakeSlot >= 0 {
			m = k.message(k.arena.slot(t.wakeSlot), t.p.id)
		}
		w := t.step(v, m)
		k.share = -1
		k.release(t)
		switch {
		case w.Done():
			k.finish(t)
			return
		case w.Match == nil:
			d := w.Timeout
			if d <= 0 {
				d = 1 // always yield, so busy loops cannot stall virtual time
			}
			t.parkGen++
			k.scheduleTimer(k.now+d, evSleep, t, t.parkGen)
			t.state = taskParked
			return
		}
		if t.wakeSlot = t.p.takeMatch(w.Match); t.wakeSlot >= 0 {
			continue
		}
		if w.Timed && w.Timeout <= 0 {
			continue
		}
		t.parkGen++
		t.p.parkOn(t, w.Match)
		if w.Timed {
			k.scheduleTimer(k.now+w.Timeout, evTimeout, t, t.parkGen)
		}
		t.state = taskParked
		return
	}
}

// release drops the arena reference of the message t was handed, if any.
func (k *Kernel) release(t *task) {
	if t.wakeSlot >= 0 {
		k.arena.unref(t.wakeSlot)
		t.wakeSlot = -1
	}
}

// copyOf builds the copy of the message in slot s addressed to process to.
func (k *Kernel) copyOf(s *msgSlot, to dsys.ProcessID) dsys.Message {
	return dsys.Message{From: dsys.ProcessID(s.from), To: to, Kind: k.kindNames[s.kid], Payload: s.payload, SentAt: s.sentAt}
}

// message materialises the copy of slot s addressed to process to into
// k.msg and returns it. Each call rebuilds every field from the slot, so
// what one receiver did to its message is gone by the next.
func (k *Kernel) message(s *msgSlot, to dsys.ProcessID) *dsys.Message {
	k.msg = k.copyOf(s, to)
	return &k.msg
}

// fire executes one popped event. It returns the single task the event made
// runnable, if any, leaving its runq insertion to the caller (evFunc events
// may wake or spawn any number of tasks; those enqueue internally and fire
// returns nil).
func (k *Kernel) fire(ev event) *task {
	switch ev.kind {
	case evFunc:
		k.hooks.remove(ev.msg)()
	case evDeliver:
		s := k.arena.slot(ev.msg)
		if s.gen != ev.gen {
			panic(fmt.Sprintf("sim: stale delivery event observed recycled arena slot %d (slot gen %d, event gen %d)", ev.msg, s.gen, ev.gen))
		}
		return k.deliver(ev.msg, dsys.ProcessID(ev.kid), s)
	case evSleep, evTimeout:
		// A stale timer (the task has finished since, or was woken by a
		// message or re-parked) is recognized by the task id or the park
		// generation and ignored.
		t := k.tasks.slots[ev.msg]
		if t == nil || int32(t.id) != ev.kid {
			return nil
		}
		if t.state == taskParked && t.parkGen == ev.gen {
			return ready(t)
		}
	}
	return nil
}

func (k *Kernel) schedule(at time.Duration, e event) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	e.at = at
	e.seq = k.seq
	k.eq.push(e, at-k.now)
}

// scheduleEvent enqueues the hook fn, held in the hook table until it fires.
func (k *Kernel) scheduleEvent(at time.Duration, fn func()) {
	k.schedule(at, event{kind: evFunc, msg: k.hooks.add(fn)})
}

// kindID is dsys.KindID memoized through the kernel's one-entry cache (see
// lastKind). The comparison of equal string literals is a length check plus a
// pointer-equal memequal, far cheaper than the intern table's map lookups.
func (k *Kernel) kindID(kind string) int32 {
	if kind == k.lastKind {
		return k.lastKid
	}
	id := dsys.KindID(kind)
	k.lastKind, k.lastKid = kind, id
	for int(id) >= len(k.kindNames) {
		k.kindNames = append(k.kindNames, "")
	}
	k.kindNames[id] = kind
	return id
}

// sendSlot returns the arena slot for a send of kind kid and payload by
// process from: the slot of the running step's previous send when that
// carries the same message (same sender, kind and boxed payload, see
// samePayload), otherwise a fresh one. A shared slot gains one reference
// per copy the caller schedules, exactly as a duplicated send's copies do.
// A previous send whose copies were all dropped left its slot on the free
// list with no reference, so it is not shared.
func (k *Kernel) sendSlot(from dsys.ProcessID, kid int32, payload any) (int32, *msgSlot) {
	if k.share >= 0 {
		s := k.arena.slot(k.share)
		if s.kid == kid && s.from == int32(from) && s.sentAt == k.now && s.refs > 0 && samePayload(s.payload, payload) {
			return k.share, s
		}
	}
	h, s := k.arena.alloc()
	s.payload, s.sentAt, s.from, s.kid = payload, k.now, int32(from), kid
	k.share = h
	return h, s
}

// sendCopy schedules one delivery of slot h to process to at time at,
// taking a reference for it.
func (k *Kernel) sendCopy(at time.Duration, h int32, s *msgSlot, to dsys.ProcessID) {
	s.refs++
	k.schedule(at, event{kind: evDeliver, msg: h, gen: s.gen, kid: int32(to)})
}

// traceSend reports one copy's send to the trace collector, if there is one.
// The copy is built on the stack: k.msg may hold the sending step's message.
func (k *Kernel) traceSend(s *msgSlot, to dsys.ProcessID, dropped bool) {
	if k.cfg.Trace == nil {
		return
	}
	m := k.copyOf(s, to)
	k.cfg.Trace.OnSend(&m, dropped)
}

// scheduleTimer enqueues a task wake-up (a sleep or a timed wait) without
// allocating a closure — the per-timer fast path. The event names t by its
// handle: its task-table slot and its id (see Kernel.tasks).
func (k *Kernel) scheduleTimer(at time.Duration, kind eventKind, t *task, gen uint32) {
	k.schedule(at, event{kind: kind, msg: t.h, kid: int32(t.id), gen: gen})
}

// ready makes a parked task runnable without enqueueing it; the dispatch
// loop decides between the runq and direct selection.
func ready(t *task) *task {
	t.p.unpark(t)
	t.state = taskRunnable
	t.match = nil
	return t
}

// deliver hands the copy of the message in arena slot h addressed to
// process to: directly to the parked task that would have matched it first
// in task-creation order, otherwise into the process buffer.
//
// Parked tasks are indexed by what they wait for: a task parked on a
// dsys.KindMatcher sits in the lane of each of its kinds, every other in the
// generic predicate lane (all in creation order; step tasks sit where their
// Wait's matcher puts them).
// The winner under the old linear scan over p.tasks was the lowest-id
// parked matching task; that is exactly the lower of the kind lane's head
// and the first matching generic predicate with a smaller id, so the common
// case — every waiter is a kind waiter — dispatches in O(1) without calling
// a single predicate. It returns the task the message woke (nil if the
// message was buffered or dropped), made runnable but not yet enqueued.
//
// The delivery's arena reference moves to whatever takes the message: a
// task holds it until its step has run, a buffered entry keeps it until
// taken, and a crashed destination releases it on the spot.
func (k *Kernel) deliver(h int32, to dsys.ProcessID, s *msgSlot) *task {
	p := k.procAt(to)
	if p.crashed {
		k.arena.unref(h)
		return nil
	}
	// The copy is materialised only for a trace hook or a generic matcher.
	var m *dsys.Message
	if k.cfg.Trace != nil {
		m = k.message(s, to)
		k.cfg.Trace.OnDeliver(m)
	}
	kid := s.kid
	var kt *task
	if int(kid) < len(p.kindLanes) {
		if lane := p.kindLanes[kid]; lane != nil && len(lane.tasks) > 0 {
			kt = lane.tasks[0]
		}
	}
	for _, t := range p.anyParked {
		if kt != nil && t.id > kt.id {
			break
		}
		if m == nil {
			m = k.message(s, to)
		}
		if t.match.Match(m) {
			return k.wake(t, h)
		}
	}
	if kt != nil {
		return k.wake(kt, h)
	}
	p.bufAdd(h, kid)
	return nil
}

// wake hands the message in arena slot h to the parked task t and makes it
// runnable.
func (k *Kernel) wake(t *task, h int32) *task {
	t.wakeSlot = h
	return ready(t)
}

func (k *Kernel) crash(p *proc) {
	if p.crashed {
		return
	}
	p.crashed = true
	k.cfg.Trace.OnCrash(p.id, k.now)
	k.finishTasks(p)
	// Release the buffered backlog's arena references before dropping the
	// buffer: the process is dead, but its slots must recycle (long chaos
	// soaks crash many processes, each possibly holding a backlog).
	for _, e := range p.buf {
		if e.slot >= 0 {
			k.arena.unref(e.slot)
		}
	}
	// Nothing will ever read the process's buffers again, so release them
	// too.
	p.dropBuffers()
}

// finishTasks finishes every unfinished task of p, in creation order,
// releasing any message a task was woken with. None can be added while p is
// crashed or the run is stopping, and none is running: crashes and the end
// of the run happen between steps.
func (k *Kernel) finishTasks(p *proc) {
	for t := p.first; t != nil; {
		next := t.next
		if t.state == taskParked {
			p.unpark(t)
		}
		k.release(t)
		k.finish(t)
		t = next
	}
}

func (k *Kernel) finishAll() {
	k.stopping = true
	for _, p := range k.procs {
		k.finishTasks(p)
	}
}

func (k *Kernel) procAt(id dsys.ProcessID) *proc {
	if id < 1 || int(id) > len(k.procs) {
		panic(fmt.Sprintf("sim: invalid process id %v", id))
	}
	return k.procs[id-1]
}
