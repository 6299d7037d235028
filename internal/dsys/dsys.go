// Package dsys defines the abstract distributed-system model that every
// algorithm in this repository is written against: a finite, totally ordered
// set of processes Π = {p1, ..., pn} that communicate only by sending and
// receiving messages, may fail by crashing (permanently), and have access to
// local clocks and randomness.
//
// Algorithms are expressed as one or more tasks per process (the paper's
// "Task 1", "Task 2", ... style). Almost every task is a step task: a
// resumable state machine (StepFunc) that runs one step per message or
// timer and returns what it waits for next (Wait). Receive loops ("upon
// receiving m do ...") and periodic loops ("every Φ do ...") are step tasks
// too (RecvLoopStep, TickLoopStep). The simulator runs step tasks as
// callbacks; elsewhere they run through RunSteps, their one blocking
// expansion into the Proc primitives Recv, RecvTimeout and Sleep. Spawn
// runs a body written directly against those primitives. Two runtimes
// implement Proc: the deterministic discrete-event simulator (package sim)
// and the real-time goroutine runtime (package live).
package dsys

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// ProcessID identifies a process. Processes are numbered 1..n, matching the
// total order p1, ..., pn assumed by the paper's system model. The zero value
// is not a valid process.
type ProcessID int

// None is the absence of a process (e.g. "no trusted process yet").
const None ProcessID = 0

// String implements fmt.Stringer.
func (p ProcessID) String() string {
	if p == None {
		return "p?"
	}
	return fmt.Sprintf("p%d", int(p))
}

// Message is a single point-to-point message. Kind is a short label used for
// routing predicates and for per-kind accounting in the trace collector;
// Payload carries the algorithm-specific body.
type Message struct {
	From    ProcessID
	To      ProcessID
	Kind    string
	Payload any
	// SentAt is the sender's local time at Send, filled in by the runtime.
	SentAt time.Duration
}

// Matcher selects the messages a receiving task accepts. Match must have no
// side effects. Both runtimes evaluate it at two points only: on arrival,
// against each parked receiver's matcher in spawn order (the first task
// that accepts gets the message), and on the buffered messages, in arrival
// order, when a task calls Recv/RecvTimeout. A matcher may read state that
// changes over time, but a parked receiver is not re-offered buffered
// messages when its answer changes; it sees them at its next receive. A
// runtime may skip the call when a faster dispatch path (see KindMatcher)
// answers the question.
type Matcher interface {
	// Match reports whether the matcher accepts m.
	Match(m *Message) bool
}

// MatchFunc adapts an arbitrary predicate to the Matcher interface — the
// generic slow path of receive dispatch. Wrap inline predicates as
// dsys.MatchFunc(func(m *dsys.Message) bool { ... }).
type MatchFunc func(*Message) bool

// Match implements Matcher.
func (f MatchFunc) Match(m *Message) bool { return f(m) }

// KindMatcher is a Matcher that accepts exactly the messages of a fixed set
// of kinds and carries their interned ids (see KindID). Runtimes probe
// matchers for it so they can index parked tasks and receive buffers by
// kind id and dispatch the common case in O(1) instead of scanning every
// parked predicate; arbitrary MatchFuncs keep the linear slow path.
// MatchKind and MatchKinds build them.
type KindMatcher interface {
	Matcher
	// KindIDs returns the interned ids of the accepted kinds, without
	// repeats. Callers must not modify the slice.
	KindIDs() []int32
}

// MatchAny accepts every message.
var MatchAny Matcher = MatchFunc(func(*Message) bool { return true })

// TaskFunc is the body of a task. It runs until it returns, the process
// crashes, or the run is stopped; in the latter two cases the runtime unwinds
// the task from inside a blocking primitive.
type TaskFunc func(Proc)

// Proc is a task's handle to its process and to the system. All methods are
// safe to call from the owning task; under the simulator, tasks of one
// process additionally never run concurrently, while under the live runtime
// tasks are ordinary goroutines (shared algorithm state therefore must be
// protected by locks, which is cheap and uncontended under the simulator).
type Proc interface {
	// ID returns the identity of the process this task belongs to.
	ID() ProcessID
	// N returns the total number of processes in the system.
	N() int
	// All returns the process identities 1..n in order. Callers must not
	// modify the returned slice.
	All() []ProcessID
	// Now returns the process-local time (virtual under the simulator,
	// monotonic wall clock under the live runtime) since the run started.
	Now() time.Duration
	// Rand returns the process-local deterministic random source.
	Rand() *rand.Rand
	// Send sends a message. Sending to the process itself is allowed and
	// delivers through the ordinary receive path (with zero link delay under
	// the simulator). Send never blocks.
	Send(to ProcessID, kind string, payload any)
	// Recv blocks until a buffered or arriving message satisfies match,
	// removes it from the buffer and returns it. The returned flag is false
	// only when the task is being unwound (crash or stop); in that case the
	// runtime unwinds the task before the caller can observe it, so callers
	// may ignore the flag. Matchers implementing KindMatcher (MatchKind's
	// and MatchKinds' results) dispatch through the runtime's kind index.
	Recv(match Matcher) (*Message, bool)
	// RecvTimeout is Recv with a deadline d from now. It returns ok=false
	// with a nil message if the deadline elapses first.
	RecvTimeout(match Matcher, d time.Duration) (*Message, bool)
	// Sleep suspends the task for d.
	Sleep(d time.Duration)
	// Spawn starts a new task of the same process. Spawned tasks are
	// unwound together with the process.
	Spawn(name string, fn TaskFunc)
	// Logf records a debug log line tagged with the process and time.
	Logf(format string, args ...any)
}

// Majority returns the size of a strict majority of n processes,
// ⌊n/2⌋ + 1 = ⌈(n+1)/2⌉, the quorum used throughout the consensus
// algorithms (the paper assumes f < n/2 correct-majority).
func Majority(n int) int { return n/2 + 1 }

// MaxFaulty returns the largest f with f < n/2, the maximum number of crash
// failures tolerated by the consensus algorithms.
func MaxFaulty(n int) int { return (n - 1) / 2 }

// Pids returns the identity slice 1..n.
func Pids(n int) []ProcessID {
	ps := make([]ProcessID, n)
	for i := range ps {
		ps[i] = ProcessID(i + 1)
	}
	return ps
}

// ParseCrashes parses a crash schedule "id@duration,..." (e.g.
// "2@300ms,5@600ms") over processes 1..n; the empty string is no crashes.
// Each process appears at most once and crash times are not negative.
func ParseCrashes(s string, n int) (map[ProcessID]time.Duration, error) {
	out := map[ProcessID]time.Duration{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		idText, at, ok := strings.Cut(strings.TrimSpace(part), "@")
		id, err := strconv.Atoi(idText)
		if !ok || err != nil {
			return nil, fmt.Errorf("bad crash spec %q (want id@duration)", part)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			return nil, fmt.Errorf("bad crash time in %q: %v", part, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("negative crash time in %q", part)
		}
		if id < 1 || id > n {
			return nil, fmt.Errorf("crash id %d in %q out of range 1..%d", id, part, n)
		}
		if _, dup := out[ProcessID(id)]; dup {
			return nil, fmt.Errorf("process %d crashes twice (%q)", id, part)
		}
		out[ProcessID(id)] = d
	}
	return out, nil
}
