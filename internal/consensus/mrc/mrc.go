// Package mrc implements an Ω-based, leader-driven Uniform Consensus
// algorithm in the style of Mostefaoui and Raynal's "Leader-Based Consensus"
// (Parallel Processing Letters 11(1), 2001), the second baseline of the
// paper's Section 5.4. It assumes a majority of correct processes and an Ω
// failure detector (only a trusted process — no suspect sets).
//
// The exact PPL'01 text is unavailable offline; this is a reconstruction
// that preserves every property the paper's comparison relies on (see
// DESIGN.md): it does not use the rotating coordinator paradigm, each of its
// three phases per round opens with a broadcast (Θ(n²) messages per round,
// the paper quotes 3n²), it decides one round after the detector stabilizes,
// and — because Ω gives no completeness information — every wait is cut off
// at the first majority of replies, so a single ⊥ ("negative reply") inside
// that first majority blocks the round's decision.
//
// Round r:
//
//	Phase 1  everyone broadcasts (leader_p, estimate, ts) and collects the
//	         first majority of such messages;
//	Phase 2  a process unanimously named leader by its first majority
//	         broadcasts the largest-timestamp estimate from that majority
//	         as its proposal; everyone else broadcasts "no proposal";
//	         every process waits for the phase-2 message of the process its
//	         own first majority named (⊥ immediately if the naming was not
//	         unanimous; escape with ⊥ if its Ω leader changes);
//	Phase 3  everyone broadcasts the value obtained (v or ⊥) and collects
//	         the first majority: all v → R-broadcast decide(v); any v →
//	         adopt v with timestamp r.
//
// Safety of the reconstruction: at most one process per round can be
// unanimously named by a majority (two majorities intersect, and the common
// sender named one leader), so non-⊥ phase-3 values are unique per round and
// the Chandra–Toueg locking argument applies verbatim.
//
// One process's run of an instance is a resumable state machine, Proposal,
// on package cec's pattern: each Step handles the message (or the idle
// poll) that ended the last wait and runs on to the next one. Spawned with
// dsys.SpawnStep it is a step task.
package mrc

import (
	"repro/internal/consensus"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/rbcast"
)

// Message kinds.
const (
	KindLdr  = "mrc.ldr"  // Phase 1: (leader, est, ts)
	KindProp = "mrc.prop" // Phase 2: proposal or no-proposal
	KindAck  = "mrc.ack"  // Phase 3: obtained value or ⊥
)

// Stats reports per-run counters of one process's Proposal.
type Stats struct {
	// Rounds is the number of rounds this process entered.
	Rounds int
	// BlockedByBottom counts rounds in which this process saw at least one
	// v among its first majority of phase-3 replies but a ⊥ prevented the
	// unanimity needed to decide.
	BlockedByBottom int
}

// LdrInfo rides in consensus.Msg.Est for phase 1: the named leader and the
// sender's estimate. Exported for transport serialization (package tcpnet).
type LdrInfo struct {
	Leader dsys.ProcessID
	Est    any
}

type arrival struct {
	from dsys.ProcessID
	env  consensus.Msg
}

// phase is the wait a Proposal is in: each is one "wait until" loop of the
// round, re-entered at its top after every message and every idle poll.
type phase uint8

const (
	phStart     phase = iota // not started: the first Step subscribes to R-delivery
	phRound                  // between rounds: open the next one
	phLeaders                // Phase 1: the first majority of leader messages
	phCandidate              // Phase 2: the candidate's proposal
	phReplies                // Phase 3: the first majority of obtained values
	phDone
)

// Proposal is one process's run of one Uniform Consensus instance, as a
// resumable state machine on cec.Proposal's pattern: Step is a
// dsys.StepFunc that returns when the instance waits for its next message
// and finishes once this process has decided. d is the process's Ω oracle,
// rb its reliable-broadcast module. On a process that crashes before
// deciding the task is unwound by the runtime and never finishes.
type Proposal struct {
	p    dsys.Proc
	d    fd.LeaderOracle
	rb   *rbcast.Module
	opt  consensus.Options
	self dsys.ProcessID
	maj  int

	ph       phase
	r        int
	cand     dsys.ProcessID // the round's candidate named by our first majority
	estimate any
	ts       int

	byKind   map[string]map[int][]arrival // kind -> round -> arrivals in order
	seen     map[string]map[int]map[dsys.ProcessID]bool
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
func NewProposal(d fd.LeaderOracle, rb *rbcast.Module, v any, opt consensus.Options) *Proposal {
	opt = opt.WithDefaults()
	return &Proposal{
		d: d, rb: rb, opt: opt,
		estimate:  v,
		byKind:    make(map[string]map[int][]arrival),
		seen:      make(map[string]map[int]map[dsys.ProcessID]bool),
		matchAll:  consensus.Match("mrc.", opt.Instance),
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
		st.self, st.maj = p.ID(), dsys.Majority(p.N())
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

func (st *Proposal) dispatch(m *dsys.Message) {
	env := m.Payload.(consensus.Msg)
	if st.byKind[m.Kind] == nil {
		st.byKind[m.Kind] = make(map[int][]arrival)
		st.seen[m.Kind] = make(map[int]map[dsys.ProcessID]bool)
	}
	if st.seen[m.Kind][env.Round] == nil {
		st.seen[m.Kind][env.Round] = make(map[dsys.ProcessID]bool)
	}
	if st.seen[m.Kind][env.Round][m.From] {
		return
	}
	st.seen[m.Kind][env.Round][m.From] = true
	st.byKind[m.Kind][env.Round] = append(st.byKind[m.Kind][env.Round], arrival{from: m.From, env: env})
}

func (st *Proposal) broadcast(kind string, env consensus.Msg) {
	env.Inst = st.opt.Instance
	for _, q := range st.p.All() {
		st.p.Send(q, kind, env)
	}
}

// firstMaj returns the first majority of arrivals of kind for the current
// round, or nil while fewer have arrived.
func (st *Proposal) firstMaj(kind string) []arrival {
	if as := st.byKind[kind][st.r]; len(as) >= st.maj {
		return as[:st.maj]
	}
	return nil
}

// advance runs the rounds from the wait the instance is in until it must
// wait for a message again (false) or has decided (true). Every wait ends
// as soon as a decision is known.
func (st *Proposal) advance() bool {
	for st.checkDecided() == nil {
		r := st.r
		switch st.ph {
		case phRound:
			st.r++
			r = st.r
			st.stats.Rounds++
			if st.opt.RoundProbe != nil {
				st.opt.RoundProbe.Set(st.self, r)
			}
			// Phase 1: broadcast our leader's identity and our estimate.
			myLeader := st.d.Trusted()
			st.broadcast(KindLdr, consensus.Msg{Round: r, Est: LdrInfo{Leader: myLeader, Est: st.estimate}, TS: st.ts})
			st.ph = phLeaders

		case phLeaders:
			p1 := st.firstMaj(KindLdr)
			if p1 == nil {
				return false
			}
			// The process unanimously named by the first majority (if any)
			// is this round's coordinator candidate in our view.
			st.cand = p1[0].env.Est.(LdrInfo).Leader
			for _, a := range p1[1:] {
				if a.env.Est.(LdrInfo).Leader != st.cand {
					st.cand = dsys.None
					break
				}
			}
			// Phase 2: if we were unanimously named by our own first
			// majority we propose the largest-timestamp estimate from it;
			// otherwise we announce that we have nothing to propose. Either
			// way we broadcast, so nobody waits on us in vain.
			if st.cand == st.self {
				best := p1[0]
				for _, a := range p1[1:] {
					if a.env.TS > best.env.TS {
						best = a
					}
				}
				st.broadcast(KindProp, consensus.Msg{Round: r, Est: best.env.Est.(LdrInfo).Est})
			} else {
				st.broadcast(KindProp, consensus.Msg{Round: r, Null: true})
			}
			if st.cand == dsys.None {
				// With no candidate the obtained value is ⊥ immediately.
				st.phase3(nil, false)
				continue
			}
			st.ph = phCandidate

		case phCandidate:
			// Wait for the phase-2 message of our candidate. If our Ω leader
			// moves away from the candidate (it crashed, or the election is
			// still unstable) we give up with ⊥ — Ω gives us no suspect set
			// to consult.
			if env, ok := st.from(KindProp, r, st.cand); ok {
				st.phase3(env.Est, !env.Null)
			} else if st.d.Trusted() != st.cand {
				st.phase3(nil, false)
			} else {
				return false
			}

		case phReplies:
			// Inspect the first majority of phase-3 messages.
			p3 := st.firstMaj(KindAck)
			if p3 == nil {
				return false
			}
			var v any
			sawV, sawBottom := false, false
			for _, a := range p3 {
				if a.env.Null {
					sawBottom = true
				} else {
					v = a.env.Est
					sawV = true
				}
			}
			switch {
			case sawV && !sawBottom:
				st.rb.Broadcast(st.p, consensus.Decide{Inst: st.opt.Instance, Round: r, Value: v})
			case sawV:
				st.stats.BlockedByBottom++
				st.estimate = v
				st.ts = r
			}
			st.ph = phRound
		}
	}
	return true
}

// phase3 ends Phase 2 with the obtained value (haveV) or ⊥ and opens Phase
// 3: it broadcasts what was obtained and waits for the first majority.
func (st *Proposal) phase3(obtained any, haveV bool) {
	if !haveV {
		obtained = nil
	} else {
		// Adopt on acknowledgement, as in Chandra–Toueg: the value is
		// locked before the ack is visible to anyone.
		st.estimate = obtained
		st.ts = st.r
	}
	st.broadcast(KindAck, consensus.Msg{Round: st.r, Est: obtained, Null: !haveV})
	st.ph = phReplies
}

// from returns the arrival of kind for round r sent by q, if received.
func (st *Proposal) from(kind string, r int, q dsys.ProcessID) (consensus.Msg, bool) {
	for _, a := range st.byKind[kind][r] {
		if a.from == q {
			return a.env, true
		}
	}
	return consensus.Msg{}, false
}
