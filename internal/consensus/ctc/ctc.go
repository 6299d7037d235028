// Package ctc implements the Chandra–Toueg ◇S-based Uniform Consensus
// algorithm (JACM 1996), the rotating-coordinator baseline the paper
// compares against in Section 5.4. It assumes a majority of correct
// processes (f < n/2) and a failure detector with the ◇S properties.
//
// Rounds use the rotating coordinator paradigm: the coordinator of round r
// is p_((r−1) mod n)+1, known in advance by everyone. Each round has four
// asynchronous phases:
//
//	Phase 1  everyone sends its time-stamped estimate to the coordinator;
//	Phase 2  the coordinator waits for estimates from a majority, selects
//	         the one with the largest timestamp and sends it to all;
//	Phase 3  everyone waits for the coordinator's proposal — adopting and
//	         acking it — or suspects the coordinator and nacks;
//	Phase 4  the coordinator waits for replies from the FIRST majority; if
//	         all of them are acks it R-broadcasts the decision.
//
// Two deliberate contrasts with the paper's ◇C algorithm (package cec) are
// the subject of experiments E6 and E7: the coordinator is chosen by round
// number rather than by leader election, so after the detector stabilizes
// the round whose coordinator is the never-suspected process can be up to
// n−1 rounds away (Theorem 3); and Phase 4 stops at the first majority of
// replies, so a single nack in that majority prevents the decision even when
// a majority of acks would eventually arrive.
//
// One process's run of an instance is a resumable state machine, Proposal,
// on the skeleton all three algorithms share (consensus.Instance): each
// Step handles the message (or the idle poll) that ended the last wait and
// runs on to the next one. Spawned with dsys.SpawnStep it is a step task.
package ctc

import (
	"repro/internal/consensus"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/rbcast"
)

// Message kinds.
const (
	KindEst  = "ctc.est"
	KindProp = "ctc.prop"
	KindAck  = "ctc.ack"
	KindNack = "ctc.nack"
)

// Coordinator returns the rotating coordinator of round r among n
// processes: p1 for round 1, p2 for round 2, ..., wrapping around.
func Coordinator(r, n int) dsys.ProcessID {
	return dsys.ProcessID((r-1)%n + 1)
}

type reply struct {
	from dsys.ProcessID
	ack  bool
}

// phase is the wait a Proposal is in: each is one "wait until" loop of the
// round, re-entered at its top after every message and every idle poll.
type phase uint8

const (
	phRound     phase = iota // between rounds: open the next one
	phEstimates              // Phase 2: the coordinator gathers estimates
	phProposal               // Phase 3: wait for the coordinator's proposal
	phReplies                // Phase 4: the coordinator gathers replies
)

// Proposal is one process's run of one Uniform Consensus instance: the
// consensus.Instance it embeds runs it as a step task, and its Handle and
// Advance are the algorithm. d is the process's ◇S suspector, rb its
// reliable-broadcast module.
type Proposal struct {
	consensus.Instance
	d     fd.Suspector
	ph    phase
	coord dsys.ProcessID // the current round's coordinator

	ests    map[int]map[dsys.ProcessID]consensus.Msg
	props   map[int]map[dsys.ProcessID]consensus.Msg
	replies map[int][]reply // in arrival order — "first majority" semantics
}

// NewProposal prepares this process's run of one instance, proposing v. It
// sends nothing until its first Step.
func NewProposal(d fd.Suspector, rb *rbcast.Module, v any, opt consensus.Options) *Proposal {
	st := &Proposal{
		d:       d,
		ests:    make(map[int]map[dsys.ProcessID]consensus.Msg),
		props:   make(map[int]map[dsys.ProcessID]consensus.Msg),
		replies: make(map[int][]reply),
	}
	st.Bind(st, rb, v, opt, "ctc.", "")
	return st
}

// Handle implements consensus.Algorithm: it files m under its round, the
// first message of each kind from each sender only.
func (st *Proposal) Handle(m *dsys.Message) {
	if m == nil {
		return
	}
	env := m.Payload.(consensus.Msg)
	switch r := env.Round; m.Kind {
	case KindEst:
		keepFirst(st.ests, r, m.From, env)
	case KindProp:
		keepFirst(st.props, r, m.From, env)
	case KindAck, KindNack:
		for _, rep := range st.replies[r] {
			if rep.from == m.From {
				return
			}
		}
		st.replies[r] = append(st.replies[r], reply{from: m.From, ack: m.Kind == KindAck})
	}
}

// keepFirst stores env as q's message of round r unless q sent one already.
func keepFirst(store map[int]map[dsys.ProcessID]consensus.Msg, r int, q dsys.ProcessID, env consensus.Msg) {
	if store[r] == nil {
		store[r] = make(map[dsys.ProcessID]consensus.Msg)
	}
	if _, dup := store[r][q]; !dup {
		store[r][q] = env
	}
}

// Advance implements consensus.Algorithm.
func (st *Proposal) Advance() bool {
	for {
		r := st.R
		switch st.ph {
		case phRound:
			if st.Decided() {
				return true
			}
			st.OpenRound()
			r = st.R
			st.coord = Coordinator(r, st.N)

			// Phase 1: estimates to the rotating coordinator.
			st.Send(st.coord, KindEst, consensus.Msg{Round: r, Est: st.Estimate, TS: st.TS})
			st.ph = phProposal
			if st.coord == st.Self {
				st.ph = phEstimates
			}

		case phEstimates:
			// Phase 2: the coordinator gathers a majority of estimates (its
			// own included) and relays the one with the largest timestamp.
			if len(st.ests[r]) < st.Maj {
				return st.Decided()
			}
			best := consensus.Msg{TS: -1}
			for _, q := range st.P.All() {
				if env, ok := st.ests[r][q]; ok && env.TS > best.TS {
					best = env
				}
			}
			st.SendAll(KindProp, consensus.Msg{Round: r, Est: best.Est})
			st.ph = phProposal

		case phProposal:
			// Phase 3: wait for the coordinator's proposal or suspect it.
			if st.Decided() {
				return true
			}
			if env, ok := st.props[r][st.coord]; ok {
				st.Estimate = env.Est
				st.TS = r
				st.Send(st.coord, KindAck, consensus.Msg{Round: r})
			} else if st.coord != st.Self && st.d.Suspected().Has(st.coord) {
				st.Send(st.coord, KindNack, consensus.Msg{Round: r})
			} else {
				return false
			}
			st.ph = phRound
			if st.coord == st.Self {
				st.ph = phReplies
			}

		case phReplies:
			// Phase 4: the coordinator inspects the FIRST majority of
			// replies and decides only if all of them are acks.
			if len(st.replies[r]) < st.Maj {
				return st.Decided()
			}
			allAck := true
			for _, rep := range st.replies[r][:st.Maj] {
				allAck = allAck && rep.ack
			}
			if allAck {
				st.BroadcastDecision(r, st.Estimate)
			}
			st.ph = phRound
		}
	}
}
