// Package sim is a deterministic discrete-event simulator for asynchronous
// message-passing distributed algorithms.
//
// Algorithms are written in the blocking style of the paper's pseudo-code
// ("wait until ...") as tasks — ordinary Go functions blocking in the
// primitives of dsys.Proc. The kernel schedules tasks cooperatively:
// exactly one task runs at a time, control switches only inside kernel
// primitives, simultaneous events fire in scheduling order, and all
// randomness flows from a single seed. Two runs with the same configuration
// are therefore bit-identical, which makes the experiments in EXPERIMENTS.md
// reproducible and the property tests exact.
//
// Blocking tasks run on goroutines under a baton-passing scheduler; step
// tasks (dsys.SpawnStep, and the receive and tick loops dsys.SpawnRecvLoop
// and SpawnTickLoop build from steps) run goroutine-free as callbacks on the
// dispatch loop — same schedule, zero context switches (see Kernel). A
// blocking task starts lazily, when it is first selected, and the goroutine
// of a finished task is reused for the next task that has never run, so a
// population's set-up tasks that never block share one goroutine. A finished
// task is dropped by the kernel at once, so a run's memory tracks its pending
// events and unfinished tasks.
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
	// SelfDelay is the latency of a process sending to itself (default 0;
	// self-sends never traverse the Network).
	SelfDelay time.Duration
	// Trace receives message and crash events. Optional.
	Trace *trace.Collector
	// Log receives task debug output (Proc.Logf). Optional.
	Log io.Writer
}

// Kernel is the simulation engine. Create with New, add initial tasks with
// Spawn, inject faults with CrashAt, then call Run. Kernel is not safe for
// concurrent use; everything happens on the caller's goroutine plus the
// cooperative task goroutines.
//
// Scheduling is baton-passing: exactly one goroutine at a time — the Run
// caller or one blocking task — holds the baton and executes the dispatch
// loop (dispatch). A parking task runs the loop inline and hands the baton
// directly to the next task, so a park/wake cycle costs one channel handoff
// instead of the two of a dedicated scheduler goroutine, and re-selecting
// the task that just parked costs none. A blocking task gets its goroutine
// lazily: the first time it is selected, a goroutine whose own task has just
// finished runs its body in place, and only a parked task or the Run
// goroutine starts a fresh one (handTo). Callback tasks go further:
// they have no goroutine, so the baton holder runs their body inline at the
// exact point the task would otherwise have been resumed — the dominant
// park/deliver/park cycle costs zero switches. The order in which events
// fire and tasks run is exactly the order the old dedicated-goroutine
// scheduler produced; only the goroutine executing each body differs, which
// no simulated code can observe.
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
	// current is the task whose goroutine holds the baton (nil when the Run
	// goroutine holds it).
	current *task
	// main wakes the Run goroutine when the run is over (quiescence,
	// deadline, or a fatal task panic).
	main chan struct{}
	// bell answers the synchronous unwind handshake of unwindTask.
	bell   chan struct{}
	procs  []*proc
	pids   []dsys.ProcessID
	netRNG *rand.Rand
	events uint64
	// tasks is the task table: slot h holds the unfinished task with handle
	// h. A timer names its task by the slot and the task's id, which serves
	// as the slot's generation: a timer left by a finished task can never
	// wake a later task reusing the slot.
	tasks table[*task]
	// hooks holds the closures of pending evFunc events.
	hooks table[func()]
	// lastKind/lastKid memoize the most recent Send kind's interned id.
	// Everything that sends is serialized on the baton (kernel goroutine or
	// the one running task), so a plain field is race-free, and a protocol's
	// sends are overwhelmingly runs of one kind — this turns dsys.KindID's
	// two map lookups per send into a string compare of equal literals.
	lastKind string
	lastKid  int32
	// stopping marks the final unwind phase; primitives refuse to block and
	// sends become no-ops.
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
		cfg:  cfg,
		main: make(chan struct{}),
		bell: make(chan struct{}),
		pids: dsys.Pids(cfg.N),
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

// Spawn adds a blocking task to process id. It may be called before Run
// (initial tasks) or from harness hooks during the run.
func (k *Kernel) Spawn(id dsys.ProcessID, name string, fn dsys.TaskFunc) {
	k.spawn(k.procAt(id), name, fn)
}

// SpawnRecvLoop adds a receive loop to process id as a callback step task
// (see dsys.SpawnRecvLoop).
func (k *Kernel) SpawnRecvLoop(id dsys.ProcessID, name string, fn dsys.RecvLoopFunc, kinds ...string) {
	k.spawnStep(k.procAt(id), name, dsys.RecvLoopStep(fn, kinds...))
}

// SpawnTickLoop adds a periodic loop to process id as a callback step task
// (see dsys.SpawnTickLoop).
func (k *Kernel) SpawnTickLoop(id dsys.ProcessID, name string, loop dsys.TickLoop) {
	k.spawnStep(k.procAt(id), name, dsys.TickLoopStep(loop))
}

func (k *Kernel) spawn(p *proc, name string, fn dsys.TaskFunc) {
	if k.stopping || p.crashed {
		return
	}
	k.add(&task{name: name, p: p, body: fn})
}

// spawnStep registers a callback step task: same id allocation, task-table
// entry and initial runq position as a blocking spawn, and no goroutine ever.
func (k *Kernel) spawnStep(p *proc, name string, step dsys.StepFunc) {
	if k.stopping || p.crashed {
		return
	}
	k.add(&task{name: name, p: p, loop: &loopTask{step: step, wakeSlot: -1}})
}

// add gives a new task its id and handle, appends it to its process's task
// list and queues it to run.
func (k *Kernel) add(t *task) {
	k.taskID++
	t.id = k.taskID
	t.state = taskRunnable
	t.h = k.tasks.add(t)
	t.p.addTask(t)
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
	p := k.procAt(id)
	k.scheduleEvent(at, func() { k.crash(p) })
}

// ScheduleFunc runs fn on the kernel at virtual time at. fn must not block;
// it is intended for harness hooks such as sampling detector output or
// injecting load. fn runs before any task scheduled at the same instant.
func (k *Kernel) ScheduleFunc(at time.Duration, fn func(now time.Duration)) {
	k.scheduleEvent(at, func() { fn(k.now) })
}

// Every runs fn at start, start+period, start+2·period, ... for the rest of
// the run.
func (k *Kernel) Every(start, period time.Duration, fn func(now time.Duration)) {
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
// runnable task remains (quiescence), or until a task panics — in which case
// Run re-panics with the task's stack. Run then unwinds every remaining task
// and returns the final virtual time. Run may be called only once.
func (k *Kernel) Run(until time.Duration) time.Duration {
	if k.ran {
		panic("sim: Run called twice")
	}
	k.ran = true
	k.until = until
	defer func() { totalEvents.Add(k.events) }()
	if !k.dispatch(nil) {
		<-k.main
	}
	k.unwindAll()
	if k.fatal != nil {
		panic(k.fatal)
	}
	return k.now
}

// dispatch runs the scheduler loop on the calling goroutine — the baton
// holder — until control belongs elsewhere. self is the task whose goroutine
// is calling (nil for the Run goroutine). It returns true when the caller
// itself should continue running: self was selected to run next, self has a
// pending unwind to deliver (its park panics), or — for the Run goroutine —
// the run is over. It returns false when the baton was handed to another
// goroutine (a selected task, or the Run goroutine at end of run); a parking
// caller then blocks on its own resume channel.
//
// Callback tasks never take the baton: when selected, their body runs
// inline right here and the loop continues. That happens at exactly the
// points a blocking task would have been handed the baton, so the schedule
// — and therefore every run — is unchanged.
//
// The loop body is identical to the old dedicated-goroutine scheduler: runq
// in FIFO order first, then the earliest pending event. Only the goroutine
// executing it changes, so runs stay bit-identical.
func (k *Kernel) dispatch(self *task) bool {
	for k.fatal == nil {
		if self != nil && self.unwind != unwindNone && self.state == taskParked {
			// An event this loop fired (a crash of self's process) wants to
			// unwind the calling task; return to its park, which panics.
			return true
		}
		if k.runqHead < len(k.runq) {
			t := k.runq[k.runqHead]
			k.runq[k.runqHead] = nil
			k.runqHead++
			if k.runqHead == len(k.runq) {
				k.runq = k.runq[:0]
				k.runqHead = 0
			}
			if t.state != taskRunnable {
				continue
			}
			if t.loop != nil {
				k.runLoop(t)
				continue
			}
			return k.handTo(t, self)
		}
		if k.eq.Len() == 0 {
			break // quiescent
		}
		ev, ok := k.eq.popDue(k.until)
		if !ok {
			k.now = k.until
			break
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
			// round-trip and select it here (same order, less bookkeeping).
			if k.runqHead == len(k.runq) {
				if t.loop != nil {
					k.runLoop(t)
					continue
				}
				return k.handTo(t, self)
			}
			k.runq = append(k.runq, t)
		}
	}
	// The run is over (quiescence, deadline, or a fatal task panic): the
	// baton goes back to the Run goroutine.
	k.current = nil
	if self == nil {
		return true
	}
	k.main <- struct{}{}
	return false
}

// handTo gives the baton to blocking task t, which the dispatch loop running
// on self's goroutine (nil: the Run goroutine) has just selected, and reports
// whether the caller keeps running: because t is self, parked and now resumed
// with no switch at all, or because self has finished and its goroutine,
// free now, is to run t — which has never run — in place. A parked t is
// resumed on its own goroutine; a never-run t selected by a parked task or
// the Run goroutine gets a fresh goroutine.
func (k *Kernel) handTo(t, self *task) bool {
	t.state = taskRunning
	k.current = t
	switch {
	case t == self:
		return true // zero-switch fast path: the parked caller won
	case t.resume != nil:
		t.resume <- struct{}{}
	case self != nil && self.state == taskDone:
		return true
	default:
		go k.runTasks(t)
	}
	return false
}

// runLoop executes one scheduling turn of a callback task inline: it
// resumes the step function with the message that woke it (nil at its first
// step and after a timeout or sleep) and follows each Wait the step returns
// exactly as the blocking expansion's Recv, RecvTimeout or Sleep would. A
// buffered match is taken and stepped on without yielding (so a woken
// receive loop drains every buffered match, as the blocking loop's next Recv
// calls would), a non-positive timeout steps on at once with no message, a
// sleep parks on one evSleep scheduled after the step returned, and
// otherwise the task parks in its matcher's lanes with one evTimeout for a
// positive timeout. The message a step is handed keeps its arena slot until
// that step returns. No events fire and no other task runs while the step
// executes, just as when a blocking task holds the baton.
func (k *Kernel) runLoop(t *task) {
	t.state = taskRunning
	lp := t.loop
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(unwindPanic); !ok && k.fatal == nil {
				k.fatal = fmt.Errorf("sim: task %v/%s panicked: %v\n%s", t.p.id, t.name, r, debug.Stack())
			}
			if lp.wakeSlot >= 0 {
				k.arena.unref(lp.wakeSlot)
				lp.wakeSlot = -1
			}
			t.wakeMsg = nil
			k.finish(t)
		}
	}()
	v := taskView{t}
	m := t.wakeMsg
	t.wakeMsg = nil
	for {
		w := lp.step(v, m)
		if lp.wakeSlot >= 0 {
			k.arena.unref(lp.wakeSlot)
			lp.wakeSlot = -1
		}
		switch {
		case w.Done():
			k.finish(t)
			return
		case w.Match == nil:
			d := w.Timeout
			if d <= 0 {
				d = 1 // yield, as Sleep does
			}
			t.parkGen++
			k.scheduleTimer(k.now+d, evSleep, t, t.parkGen)
			t.state = taskParked
			return
		}
		if m, lp.wakeSlot = t.p.takeMatch(w.Match); m != nil {
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
		return k.deliver(ev.msg, ev.kid, s)
	case evSleep, evTimeout:
		// A stale timer (the task has finished since, or was woken by a
		// message or re-parked) is recognized by the task id or the park
		// generation and ignored.
		t := k.tasks.slots[ev.msg]
		if t == nil || int32(t.id) != ev.kid {
			return nil
		}
		if t.state == taskParked && t.parkGen == ev.gen {
			t.p.unpark(t)
			t.state = taskRunnable
			t.match = nil
			return t
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
	return id
}

// scheduleDeliver enqueues a message delivery without allocating anything —
// the per-send fast path. The event records the slot's generation so a
// stale holder of a recycled slot is caught at fire time.
func (k *Kernel) scheduleDeliver(at time.Duration, h int32, gen uint32, kid int32) {
	k.schedule(at, event{kind: evDeliver, msg: h, gen: gen, kid: kid})
}

// scheduleTimer enqueues a task wake-up (Sleep or RecvTimeout) without
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

// deliver hands the message in arena slot h to its destination: directly to
// the parked task that would have matched it first in task-creation order,
// otherwise into the process buffer.
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
// blocking task gets a heap copy (escape releases the reference), a
// callback task holds it until its body has run, a buffered entry keeps it
// until taken, and a crashed destination releases it on the spot.
func (k *Kernel) deliver(h, kid int32, s *msgSlot) *task {
	m := &s.m
	p := k.procAt(m.To)
	if p.crashed {
		k.arena.unref(h)
		return nil
	}
	k.cfg.Trace.OnDeliver(m)
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
		if t.match.Match(m) {
			return k.wake(t, h, m)
		}
	}
	if kt != nil {
		return k.wake(kt, h, m)
	}
	p.bufAdd(h, kid)
	return nil
}

// wake hands the message m in arena slot h to the parked task t and makes
// it runnable.
func (k *Kernel) wake(t *task, h int32, m *dsys.Message) *task {
	if t.loop != nil {
		t.wakeMsg = m
		t.loop.wakeSlot = h
	} else {
		t.wakeMsg = k.arena.escape(h)
	}
	return ready(t)
}

func (k *Kernel) crash(p *proc) {
	if p.crashed {
		return
	}
	p.crashed = true
	k.cfg.Trace.OnCrash(p.id, k.now)
	k.unwindTasks(p, unwindCrash)
	// Release the buffered backlog's arena references before dropping the
	// buffer: the process is dead, but its slots must recycle (long chaos
	// soaks crash many processes, each possibly holding a backlog).
	for _, e := range p.buf {
		if e.slot >= 0 {
			k.arena.unref(e.slot)
		}
	}
	// Nothing will ever read the process's buffers again, so release them
	// too. The task list is empty but for a task unwound later (see
	// unwindTask), which leaves it when it finishes.
	p.buf, p.byKid, p.kindLanes, p.anyParked = nil, nil, nil, nil
	p.bufDead = 0
}

// unwindTasks unwinds every unfinished task of p, in creation order. Each
// finishes during its own unwind and leaves the list — except the task whose
// goroutine holds the baton, which finishes once control returns to its park
// (see unwindTask). None can be added while p is crashed or the run is
// stopping.
func (k *Kernel) unwindTasks(p *proc, kind unwindKind) {
	for t := p.first; t != nil; {
		next := t.next
		k.unwindTask(t, kind)
		t = next
	}
}

func (k *Kernel) unwindTask(t *task, kind unwindKind) {
	switch t.state {
	case taskDone:
		return
	case taskRunning:
		panic("sim: unwinding a running task")
	case taskParked:
		t.p.unpark(t)
	}
	t.unwind = kind
	if lp := t.loop; lp != nil {
		// Callback tasks have no goroutine to handshake: release any pending
		// wake message and finish the task on the spot.
		if lp.wakeSlot >= 0 {
			k.arena.unref(lp.wakeSlot)
			lp.wakeSlot = -1
		}
		t.wakeMsg = nil
		k.finish(t)
		return
	}
	if t.resume == nil {
		// A blocking task that has never run has no goroutine either: it
		// never will run.
		k.finish(t)
		return
	}
	if t == k.current {
		// t's goroutine holds the baton right now: it parked and is executing
		// the dispatch loop that fired the crash event unwinding it. It cannot
		// be handshaken — its resume channel has no receiver. dispatch notices
		// the pending unwind once the current event finishes and returns
		// control to t's park, which unwinds it there with the baton kept.
		return
	}
	t.unwindSync = true
	t.state = taskRunning
	t.resume <- struct{}{}
	<-k.bell
}

func (k *Kernel) unwindAll() {
	k.stopping = true
	for _, p := range k.procs {
		k.unwindTasks(p, unwindStop)
	}
}

func (k *Kernel) procAt(id dsys.ProcessID) *proc {
	if id < 1 || int(id) > len(k.procs) {
		panic(fmt.Sprintf("sim: invalid process id %v", id))
	}
	return k.procs[id-1]
}
