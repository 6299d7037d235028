// Package consensus holds what the three Uniform Consensus implementations
// compared in the paper's Section 5.4 share:
//
//	cec — the paper's ◇C-based algorithm (Figs. 3–4)
//	ctc — the Chandra–Toueg ◇S rotating-coordinator algorithm
//	mrc — a Mostefaoui–Raynal-style Ω leader-based algorithm
//
// All three solve Uniform Consensus assuming a majority of correct processes
// (f < n/2). Each exposes one process's run of an instance as a resumable
// state machine, a Proposal, run as a step task; its Result is the decided
// value and the round in which the process decided. The three Proposals are
// one skeleton, Instance, with an Algorithm each: they differ only in how
// they handle a message and run their rounds.
package consensus

import (
	"strings"
	"sync"
	"time"

	"repro/internal/dsys"
)

// Msg is the wire envelope shared by the consensus protocols. A single
// envelope type keeps matching and tracing uniform; unused fields are zero.
type Msg struct {
	// Inst isolates concurrent or successive consensus instances sharing a
	// process (e.g. slots of a replicated log).
	Inst string
	// Round is the asynchronous round number, starting at 1.
	Round int
	// Est is the carried estimate (proposal value), if any.
	Est any
	// TS is the round in which the sender adopted Est (its timestamp).
	TS int
	// Null marks a null estimate or null proposition.
	Null bool
}

// Match selects messages whose kind starts with prefix and whose envelope
// belongs to instance inst.
func Match(prefix, inst string) dsys.MatchFunc {
	return func(m *dsys.Message) bool {
		if !strings.HasPrefix(m.Kind, prefix) {
			return false
		}
		env, ok := m.Payload.(Msg)
		return ok && env.Inst == inst
	}
}

// Proposal is one process's run of one consensus instance: Step is the
// dsys.StepFunc of its step task, and Result reports the decision once the
// task has finished. The Proposal types of packages cec, ctc and mrc
// implement it.
type Proposal interface {
	Step(p dsys.Proc, m *dsys.Message) dsys.Wait
	Result() (Result, bool)
}

// Result is the outcome of one process's Proposal.
type Result struct {
	// Value is the decided value.
	Value any
	// Round is the round in which this process decided (the round carried
	// by the decide message it delivered).
	Round int
	// At is the process-local decision time.
	At time.Duration
}

// Options configures a Propose call. The zero value is usable.
type Options struct {
	// Instance isolates this consensus instance's messages. Processes must
	// use equal Instance strings for the same instance.
	Instance string
	// Poll is the interval after which an instance's wait ends idle, so
	// that it re-examines detector output and local conditions (default
	// 1ms). It bounds how quickly a process reacts to suspicions and, in
	// cec, times ProbeAfter, how soon it repairs a lost message. Message
	// arrivals are reacted to immediately, and so is cec's R-delivery of
	// the decision, a self-addressed message; ctc and mrc take an
	// R-delivered decision at their next wake-up.
	Poll time.Duration
	// RoundProbe, if set, is updated with this process's current round at
	// every round start — instrumentation for experiment E6.
	RoundProbe *RoundProbe
	// MergedPhase01 selects the variant of the ◇C algorithm discussed in
	// Section 5.4: Phases 0 and 1 are merged (each process sends its
	// estimate straight to its trusted process and null estimates to
	// everyone else), trading one fewer communication step for Ω(n²)
	// messages per round. Only package cec honours this flag.
	MergedPhase01 bool
	// FirstMajorityCutoff is an ablation switch for the ◇C algorithm: the
	// coordinator stops waiting at the first majority of replies, as
	// Chandra–Toueg does, instead of waiting for every non-suspected
	// process. Used to quantify the value of the paper's wait rule. Only
	// package cec honours this flag.
	FirstMajorityCutoff bool
	// PreDecided, if set, is consulted at each of the instance's waits:
	// when it reports a decision (value, round, true) the instance adopts
	// it and finishes in that step, without sending another message. Layers
	// that learn decisions out of band — e.g. a replicated log whose replica
	// joins an instance after its decide message was already R-delivered —
	// use this to avoid waiting forever.
	PreDecided func() (any, int, bool)
	// ProbeAfter is the number of consecutive idle poll cycles a blocking
	// wait tolerates before it broadcasts a catch-up probe and retransmits
	// its last phase messages (default 200). A replica that knows it is
	// replaying an already-decided instance — e.g. a restarted process
	// rebuilding its log — sets this low so decided peers answer with the
	// decision after one idle poll instead of after 200. Only package cec
	// honours this field.
	ProbeAfter int
	// NoResponder suppresses the per-instance post-decision responder task.
	// A caller that runs many instances on one process — the replicated log
	// runs one per slot — must answer stragglers itself through a single
	// shared task instead: one everlasting task per instance means every
	// message arrival wakes every task ever decided, and throughput decays
	// with uptime. Only package cec honours this field.
	NoResponder bool
}

// RoundProbe records the latest round each process has entered; experiment
// E6 reads it at the instant the failure detector is made stable. It is safe
// for concurrent use.
type RoundProbe struct {
	mu     sync.Mutex
	rounds map[dsys.ProcessID]int
}

// Set records that id entered round r.
func (rp *RoundProbe) Set(id dsys.ProcessID, r int) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.rounds == nil {
		rp.rounds = make(map[dsys.ProcessID]int)
	}
	if r > rp.rounds[id] {
		rp.rounds[id] = r
	}
}

// Max returns the highest round any process has entered.
func (rp *RoundProbe) Max() int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	m := 0
	for _, r := range rp.rounds {
		if r > m {
			m = r
		}
	}
	return m
}

// WithDefaults fills zero fields.
func (o Options) WithDefaults() Options {
	if o.Poll <= 0 {
		o.Poll = time.Millisecond
	}
	if o.ProbeAfter <= 0 {
		o.ProbeAfter = 200
	}
	return o
}

// Decide is the payload R-broadcast to disseminate a decision.
type Decide struct {
	Inst  string
	Round int
	Value any
}
