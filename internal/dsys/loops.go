package dsys

import "time"

// Every task of the repository's algorithms that is not written as a
// blocking TaskFunc is a step task: a resumable state machine whose StepFunc
// runs until the body would block and returns what it waits for next (a
// Wait). That one shape covers all three the algorithms use: a receive loop
// ("upon receiving m of kind K do ...", RecvLoopStep) waits for its kinds
// after every message, a periodic loop ("every Φ do ...", TickLoopStep)
// sleeps a period after every tick, and a consensus instance or log driver
// waits mid-phase for whatever its state needs. Declared this way a task
// exposes its structure, and a runtime implementing LoopSpawner runs it as
// a callback with no execution context at all — the simulator's
// goroutine-free fast path. Everywhere else it runs through RunSteps, the
// one blocking expansion, where every Wait becomes one Recv, RecvTimeout or
// Sleep; the expansion is also the reference the simulator's differential
// tests hold the callbacks to. Spawn remains for bodies written against the
// blocking primitives directly.

// RecvLoopFunc is the body of a receive loop: called once per received
// message, in delivery order. The message is only valid for the duration of
// the call — a fast-path runtime recycles the envelope afterwards — so
// implementations must copy any fields (not the *Message itself) they wish
// to retain.
type RecvLoopFunc func(Proc, *Message)

// TickLoopFunc is the body of a periodic loop: called once per period.
type TickLoopFunc func(Proc)

// TickLoop describes a periodic loop task.
type TickLoop struct {
	// Period between ticks. Required (positive).
	Period time.Duration
	// Immediate runs the first tick as soon as the task is first scheduled;
	// otherwise the first tick happens one period later. This mirrors the
	// two blocking idioms `for { body; Sleep(Φ) }` (Immediate) and
	// `for { Sleep(Φ); body }` (not Immediate).
	Immediate bool
	// Setup, if non-nil, runs once when the task is first scheduled, before
	// the first tick or sleep — the place to spawn companion tasks so their
	// creation order (and thus dispatch priority) matches the blocking
	// original.
	Setup func(Proc)
	// Fn is the tick body. Required.
	Fn TickLoopFunc
}

// StepFunc is the body of a step task. It is called once per resumption with
// the message that ended the previous wait — nil on the first call and when
// a timed wait or a sleep elapsed — and returns what the task waits for
// next. Like a receive loop's message, m is only valid for the duration of
// the call.
type StepFunc func(p Proc, m *Message) Wait

// Wait is what a step task waits for after a step: the first message
// matching Match, for at most Timeout when Timed; with a nil Match and Timed
// set, Timeout to pass (a sleep). The zero Wait, Finished, ends the task.
type Wait struct {
	Match   Matcher
	Timed   bool
	Timeout time.Duration
}

// Finished is the Wait that ends a step task.
var Finished Wait

// Await waits for a message matching match, like Recv.
func Await(match Matcher) Wait { return Wait{Match: match} }

// AwaitTimeout waits for a message matching match for at most d, like
// RecvTimeout: a non-positive d only takes an already buffered match.
func AwaitTimeout(match Matcher, d time.Duration) Wait {
	return Wait{Match: match, Timed: true, Timeout: d}
}

// Sleep waits for d to pass, like Proc.Sleep: a non-positive d still yields.
func Sleep(d time.Duration) Wait { return Wait{Timed: true, Timeout: d} }

// Done reports whether w ends the task.
func (w Wait) Done() bool { return w.Match == nil && !w.Timed }

// LoopSpawner is the optional runtime fast path for step tasks. Runtimes
// whose Proc implements it (the simulator's) run them as callbacks on the
// scheduler; SpawnStep and the loop spawners probe for it and otherwise
// spawn the blocking expansion RunSteps.
type LoopSpawner interface {
	SpawnStep(name string, step StepFunc)
}

// SpawnStep spawns a step task of p's process. Scheduling is identical to
// spawning a task that calls RunSteps(p, step), the blocking expansion, but
// runtimes implementing LoopSpawner run it goroutine-free.
func SpawnStep(p Proc, name string, step StepFunc) {
	if ls, ok := p.(LoopSpawner); ok {
		ls.SpawnStep(name, step)
		return
	}
	p.Spawn(name, func(p Proc) { RunSteps(p, step) })
}

// SpawnRecvLoop spawns the step task RecvLoopStep(fn, kinds...) on p's
// process: fn runs once per received message of any of the given kinds, in
// delivery order.
func SpawnRecvLoop(p Proc, name string, fn RecvLoopFunc, kinds ...string) {
	SpawnStep(p, name, RecvLoopStep(fn, kinds...))
}

// SpawnTickLoop spawns the step task TickLoopStep(loop) on p's process.
func SpawnTickLoop(p Proc, name string, loop TickLoop) {
	SpawnStep(p, name, TickLoopStep(loop))
}

// RecvLoopStep returns the step function of a receive loop: it waits for a
// message of any of the given kinds (through MatchKinds, the kind-indexed
// dispatch path) and calls fn on each.
func RecvLoopStep(fn RecvLoopFunc, kinds ...string) StepFunc {
	if len(kinds) == 0 {
		panic("dsys: a receive loop needs at least one message kind")
	}
	wait := Await(MatchKinds(kinds...))
	return func(p Proc, m *Message) Wait {
		if m != nil {
			fn(p, m)
		}
		return wait
	}
}

// TickLoopStep returns the step function of a periodic loop: Setup on the
// first step, then a tick and a sleep of one period per step (a sleep first
// unless Immediate).
func TickLoopStep(loop TickLoop) StepFunc {
	if loop.Period <= 0 {
		panic("dsys: a tick loop needs a positive period")
	}
	if loop.Fn == nil {
		panic("dsys: a tick loop needs a body")
	}
	started := false
	return func(p Proc, _ *Message) Wait {
		if !started {
			started = true
			if loop.Setup != nil {
				loop.Setup(p)
			}
			if !loop.Immediate {
				return Sleep(loop.Period)
			}
		}
		loop.Fn(p)
		return Sleep(loop.Period)
	}
}

// RunSteps runs step on the calling task until it is finished, blocking in
// p's Recv, RecvTimeout or Sleep for each Wait it returns — the blocking
// expansion of a step task, for runtimes without the callback path and for
// callers that drive a state machine inline (cec.Propose).
func RunSteps(p Proc, step StepFunc) {
	var m *Message
	for {
		w := step(p, m)
		switch {
		case w.Done():
			return
		case w.Match == nil:
			p.Sleep(w.Timeout)
			m = nil
		case w.Timed:
			m, _ = p.RecvTimeout(w.Match, w.Timeout)
		default:
			m, _ = p.Recv(w.Match)
		}
	}
}
