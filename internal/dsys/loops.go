package dsys

import "time"

// The two dominant task shapes in this repository's algorithms are the
// receive loop ("upon receiving m of kind K do ...") and the periodic loop
// ("every Φ do ..."). Written as blocking TaskFuncs they force the runtime
// to give each one a suspendable execution context (a goroutine under the
// simulator); declared through SpawnRecvLoop/SpawnTickLoop they expose their
// structure, and a runtime implementing LoopSpawner can run them as
// resumable callbacks with no context at all — the simulator's
// goroutine-free fast path. Runtimes without the fast path (the live
// cluster) run the equivalent blocking expansion, RecvLoopTask or
// TickLoopTask, so the two spellings behave identically everywhere; the
// expansion is also the reference the simulator's differential tests hold
// the fast path to. Every receive and periodic loop in the repository is
// declared this way.
//
// The third shape, the step task, is for bodies that wait mid-step — a
// consensus instance waiting for a phase's replies, a log driver waiting for
// its next wake-up. Its body is a resumable state machine: each call of its
// StepFunc runs until the body would block and returns what it waits for
// next (a Wait). SpawnStep runs it the same two ways: as a callback under a
// LoopSpawner, and elsewhere through RunSteps, its blocking expansion, where
// every Wait becomes one Recv or RecvTimeout. Spawn remains for bodies
// written against the blocking primitives directly.

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
// a timed wait elapsed — and returns what the task waits for next. Like a
// receive loop's message, m is only valid for the duration of the call.
type StepFunc func(p Proc, m *Message) Wait

// Wait is what a step task waits for after a step: the first message
// matching Match, for at most Timeout when Timed. The zero Wait, Finished,
// ends the task.
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

// Done reports whether w ends the task.
func (w Wait) Done() bool { return w.Match == nil }

// LoopSpawner is the optional runtime fast path for loop and step tasks.
// Runtimes whose Proc implements it (the simulator's) run them as callbacks
// on the scheduler; SpawnRecvLoop/SpawnTickLoop/SpawnStep probe for it and
// otherwise fall back to spawning the blocking expansion.
type LoopSpawner interface {
	SpawnRecvLoop(name string, fn RecvLoopFunc, kinds ...string)
	SpawnTickLoop(name string, loop TickLoop)
	SpawnStep(name string, step StepFunc)
}

// SpawnRecvLoop spawns a task of p's process that calls fn once per received
// message of any of the given kinds, in delivery order. Scheduling (task
// creation order, wake order, buffered-message order) is identical to
// spawning the blocking expansion RecvLoopTask(fn, kinds...), but runtimes
// implementing LoopSpawner run it goroutine-free.
func SpawnRecvLoop(p Proc, name string, fn RecvLoopFunc, kinds ...string) {
	if len(kinds) == 0 {
		panic("dsys: SpawnRecvLoop needs at least one message kind")
	}
	if ls, ok := p.(LoopSpawner); ok {
		ls.SpawnRecvLoop(name, fn, kinds...)
		return
	}
	p.Spawn(name, RecvLoopTask(fn, kinds...))
}

// SpawnTickLoop spawns a periodic task of p's process. Scheduling is
// identical to spawning the blocking expansion TickLoopTask(loop), but
// runtimes implementing LoopSpawner run it goroutine-free.
func SpawnTickLoop(p Proc, name string, loop TickLoop) {
	if loop.Period <= 0 {
		panic("dsys: SpawnTickLoop needs a positive period")
	}
	if loop.Fn == nil {
		panic("dsys: SpawnTickLoop needs a body")
	}
	if ls, ok := p.(LoopSpawner); ok {
		ls.SpawnTickLoop(name, loop)
		return
	}
	p.Spawn(name, TickLoopTask(loop))
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

// RecvLoopTask expands a receive loop into the equivalent blocking task
// body: a single-kind loop receives through the interned KindMatcher (the
// kind-indexed fast dispatch path), a multi-kind loop through a predicate
// over the kinds (the generic lane), exactly as the hand-written originals
// did.
func RecvLoopTask(fn RecvLoopFunc, kinds ...string) TaskFunc {
	var match Matcher
	if len(kinds) == 1 {
		match = MatchKind(kinds[0])
	} else {
		ks := append([]string(nil), kinds...)
		match = MatchFunc(func(m *Message) bool {
			for _, k := range ks {
				if m.Kind == k {
					return true
				}
			}
			return false
		})
	}
	return func(p Proc) {
		for {
			m, ok := p.Recv(match)
			if !ok {
				return
			}
			fn(p, m)
		}
	}
}

// TickLoopTask expands a periodic loop into the equivalent blocking task
// body.
func TickLoopTask(loop TickLoop) TaskFunc {
	return func(p Proc) {
		if loop.Setup != nil {
			loop.Setup(p)
		}
		if !loop.Immediate {
			p.Sleep(loop.Period)
		}
		for {
			loop.Fn(p)
			p.Sleep(loop.Period)
		}
	}
}

// RunSteps runs step on the calling task until it is finished, blocking in
// p's Recv or RecvTimeout for each Wait it returns — the blocking expansion,
// for callers that drive a state machine inline (cec.Propose).
func RunSteps(p Proc, step StepFunc) {
	var m *Message
	for {
		w := step(p, m)
		switch {
		case w.Done():
			return
		case w.Timed:
			m, _ = p.RecvTimeout(w.Match, w.Timeout)
		default:
			m, _ = p.Recv(w.Match)
		}
	}
}
