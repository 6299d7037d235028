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
// on package cec's pattern: each Step handles the message (or the idle
// poll) that ended the last wait and runs on to the next one. Spawned with
// dsys.SpawnStep it is a step task.
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

// Stats reports per-run counters of one process's Proposal.
type Stats struct {
	// Rounds is the number of rounds this process entered.
	Rounds int
	// NacksSent counts nack messages this process sent.
	NacksSent int
	// BlockedByNack counts rounds in which this process, as coordinator,
	// had a majority of acks outstanding but a nack inside its first
	// majority of replies killed the round.
	BlockedByNack int
}

type reply struct {
	from dsys.ProcessID
	ack  bool
}

// phase is the wait a Proposal is in: each is one "wait until" loop of the
// round, re-entered at its top after every message and every idle poll.
type phase uint8

const (
	phStart     phase = iota // not started: the first Step subscribes to R-delivery
	phRound                  // between rounds: open the next one
	phEstimates              // Phase 2: the coordinator gathers estimates
	phProposal               // Phase 3: wait for the coordinator's proposal
	phReplies                // Phase 4: the coordinator gathers replies
	phDone
)

// Proposal is one process's run of one Uniform Consensus instance, as a
// resumable state machine on cec.Proposal's pattern: Step is a
// dsys.StepFunc that returns when the instance waits for its next message
// and finishes once this process has decided. d is the process's ◇S
// suspector, rb its reliable-broadcast module. On a process that crashes
// before deciding the task is unwound by the runtime and never finishes.
type Proposal struct {
	p    dsys.Proc
	d    fd.Suspector
	rb   *rbcast.Module
	opt  consensus.Options
	self dsys.ProcessID
	n    int
	maj  int

	ph       phase
	r        int
	coord    dsys.ProcessID // the current round's coordinator
	estimate any
	ts       int

	ests     map[int]map[dsys.ProcessID]consensus.Msg
	props    map[int]map[dsys.ProcessID]consensus.Msg
	replies  map[int][]reply // in arrival order — "first majority" semantics
	replied  map[int]map[dsys.ProcessID]bool
	matchAll dsys.MatchFunc
	// decidedCh carries the R-delivered decision from the relay task, which
	// on the live runtime is another goroutine.
	decidedCh chan consensus.Result
	cancel    func() // ends the R-delivery subscription
	decided   *consensus.Result
	stats     Stats
}

// NewProposal prepares this process's run of one instance, proposing v. It
// sends nothing until its first Step.
func NewProposal(d fd.Suspector, rb *rbcast.Module, v any, opt consensus.Options) *Proposal {
	opt = opt.WithDefaults()
	return &Proposal{
		d: d, rb: rb, opt: opt,
		estimate:  v,
		ests:      make(map[int]map[dsys.ProcessID]consensus.Msg),
		props:     make(map[int]map[dsys.ProcessID]consensus.Msg),
		replies:   make(map[int][]reply),
		replied:   make(map[int]map[dsys.ProcessID]bool),
		matchAll:  consensus.Match("ctc.", opt.Instance),
		decidedCh: make(chan consensus.Result, 1),
	}
}

// Result returns this process's decision and true once it has decided (the
// Proposal has finished).
func (st *Proposal) Result() (consensus.Result, bool) {
	if st.ph != phDone {
		return consensus.Result{}, false
	}
	return *st.decided, true
}

// Stats returns the Proposal's run statistics so far.
func (st *Proposal) Stats() Stats { return st.stats }

// Step implements dsys.StepFunc: it handles m — the message that ended the
// last wait, nil for the first step and for an idle poll — and runs the
// instance on to its next wait, which is always one poll interval for any
// message of the instance. Once this process has decided it finishes.
func (st *Proposal) Step(p dsys.Proc, m *dsys.Message) dsys.Wait {
	st.p = p
	if st.ph == phStart {
		st.self, st.n, st.maj = p.ID(), p.N(), dsys.Majority(p.N())
		st.cancel = st.rb.OnDeliver(st.onRDeliver)
		st.ph = phRound
	} else if m != nil {
		st.dispatch(m)
	}
	if !st.advance() {
		return dsys.AwaitTimeout(st.matchAll, st.opt.Poll)
	}
	st.ph = phDone
	st.cancel()
	return dsys.Finished
}

func (st *Proposal) onRDeliver(p dsys.Proc, _ dsys.ProcessID, payload any) {
	dec, ok := payload.(consensus.Decide)
	if !ok || dec.Inst != st.opt.Instance {
		return
	}
	select {
	case st.decidedCh <- consensus.Result{Value: dec.Value, Round: dec.Round, At: p.Now()}:
	default:
	}
}

func (st *Proposal) checkDecided() *consensus.Result {
	if st.decided != nil {
		return st.decided
	}
	select {
	case res := <-st.decidedCh:
		st.decided = &res
	default:
	}
	if st.decided == nil && st.opt.PreDecided != nil {
		if v, r, ok := st.opt.PreDecided(); ok {
			st.decided = &consensus.Result{Value: v, Round: r, At: st.p.Now()}
		}
	}
	return st.decided
}

func (st *Proposal) send(to dsys.ProcessID, kind string, env consensus.Msg) {
	env.Inst = st.opt.Instance
	st.p.Send(to, kind, env)
}

func (st *Proposal) dispatch(m *dsys.Message) {
	env := m.Payload.(consensus.Msg)
	r := env.Round
	switch m.Kind {
	case KindEst:
		if st.ests[r] == nil {
			st.ests[r] = make(map[dsys.ProcessID]consensus.Msg)
		}
		if _, dup := st.ests[r][m.From]; !dup {
			st.ests[r][m.From] = env
		}
	case KindProp:
		if st.props[r] == nil {
			st.props[r] = make(map[dsys.ProcessID]consensus.Msg)
		}
		if _, dup := st.props[r][m.From]; !dup {
			st.props[r][m.From] = env
		}
	case KindAck, KindNack:
		if st.replied[r] == nil {
			st.replied[r] = make(map[dsys.ProcessID]bool)
		}
		if !st.replied[r][m.From] {
			st.replied[r][m.From] = true
			st.replies[r] = append(st.replies[r], reply{from: m.From, ack: m.Kind == KindAck})
		}
	}
}

// advance runs the rounds from the wait the instance is in until it must
// wait for a message again (false) or has decided (true).
func (st *Proposal) advance() bool {
	for {
		r := st.r
		switch st.ph {
		case phRound:
			if st.checkDecided() != nil {
				return true
			}
			st.r++
			r = st.r
			st.stats.Rounds++
			if st.opt.RoundProbe != nil {
				st.opt.RoundProbe.Set(st.self, r)
			}
			st.coord = Coordinator(r, st.n)

			// Phase 1: estimates to the rotating coordinator.
			st.send(st.coord, KindEst, consensus.Msg{Round: r, Est: st.estimate, TS: st.ts})
			st.ph = phProposal
			if st.coord == st.self {
				st.ph = phEstimates
			}

		case phEstimates:
			// Phase 2: the coordinator gathers a majority of estimates (its
			// own included) and relays the one with the largest timestamp.
			if len(st.ests[r]) < st.maj {
				return st.checkDecided() != nil
			}
			var best *consensus.Msg
			for _, q := range dsys.Pids(st.n) {
				env, ok := st.ests[r][q]
				if !ok {
					continue
				}
				if best == nil || env.TS > best.TS {
					e := env
					best = &e
				}
			}
			for _, q := range dsys.Pids(st.n) {
				st.send(q, KindProp, consensus.Msg{Round: r, Est: best.Est})
			}
			st.ph = phProposal

		case phProposal:
			// Phase 3: wait for the coordinator's proposal or suspect it.
			if st.checkDecided() != nil {
				return true
			}
			if env, ok := st.props[r][st.coord]; ok {
				st.estimate = env.Est
				st.ts = r
				st.send(st.coord, KindAck, consensus.Msg{Round: r})
			} else if st.coord != st.self && st.d.Suspected().Has(st.coord) {
				st.send(st.coord, KindNack, consensus.Msg{Round: r})
				st.stats.NacksSent++
			} else {
				return false
			}
			st.ph = phRound
			if st.coord == st.self {
				st.ph = phReplies
			}

		case phReplies:
			// Phase 4: the coordinator inspects the FIRST majority of
			// replies and decides only if all of them are acks.
			if len(st.replies[r]) < st.maj {
				return st.checkDecided() != nil
			}
			allAck := true
			for _, rep := range st.replies[r][:st.maj] {
				if !rep.ack {
					allAck = false
					break
				}
			}
			if allAck {
				st.rb.Broadcast(st.p, consensus.Decide{
					Inst:  st.opt.Instance,
					Round: r,
					Value: st.estimate,
				})
			} else {
				st.stats.BlockedByNack++
			}
			st.ph = phRound
		}
	}
}
