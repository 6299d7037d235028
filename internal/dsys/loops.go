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
// declared this way; Spawn is for bodies that genuinely block mid-step,
// such as a consensus Propose.

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

// LoopSpawner is the optional runtime fast path for loop tasks. Runtimes
// whose Proc implements it (the simulator's) run the loops as callbacks on
// the scheduler; SpawnRecvLoop/SpawnTickLoop probe for it and otherwise fall
// back to spawning the blocking expansion.
type LoopSpawner interface {
	SpawnRecvLoop(name string, fn RecvLoopFunc, kinds ...string)
	SpawnTickLoop(name string, loop TickLoop)
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
