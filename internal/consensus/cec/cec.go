// Package cec implements the paper's ◇C-based Uniform Consensus algorithm
// (Section 5.2, Figs. 3–4). It assumes a majority of correct processes
// (f < n/2) and a failure detector of class ◇C.
//
// The algorithm proceeds in asynchronous rounds of five phases:
//
//	Phase 0  Every process determines its coordinator: a process whose
//	         detector trusts itself becomes coordinator and announces
//	         itself; the others wait for an announcement (for this round or
//	         a later one — receiving a later one makes them jump ahead,
//	         footnote 2 of the paper).
//	Phase 1  Everyone sends its time-stamped estimate to its coordinator.
//	Phase 2  A coordinator gathers estimates until it has a majority AND a
//	         reply from every process it does not suspect; with a majority
//	         of non-null estimates it selects the one with the largest
//	         timestamp and proposes it to all, otherwise it sends a null
//	         proposition.
//	Phase 3  Everyone waits for a proposition: a non-null proposition from
//	         any coordinator is adopted and acknowledged; a null
//	         proposition from the own coordinator ends the phase; suspecting
//	         the own coordinator ends it with a nack.
//	Phase 4  A coordinator that proposed gathers acks/nacks until it has a
//	         majority AND a reply from every non-suspected process; with a
//	         majority of acks — even alongside nacks, the improvement the
//	         paper stresses over Chandra–Toueg — it R-broadcasts the
//	         decision.
//
// The concurrent tasks of Fig. 4 (answering late coordinators with null
// estimates, nacking late non-null propositions, and deciding on R-delivery)
// are folded into a single deterministic message dispatcher; behaviour is
// identical because the tasks in the paper only react to received messages.
// R-delivery reaches the dispatcher as a message too: the delivery handler
// self-sends the decision as a KindDecided, so the instance waiting in any
// phase wakes and returns at its R-delivery instant. A coordinator that
// R-broadcast the decision waits for exactly that (its own copy is local,
// Validity guarantees it) instead of opening another round. Options.Poll is
// therefore only the interval at which waits re-read the detector and, after
// ProbeAfter idle polls, repair message loss; no fault-free step waits on it.
//
// Because every step reacts to a message or an idle poll, one process's run
// of an instance is a resumable state machine, Proposal, on the skeleton
// ctc and mrc share too (consensus.Instance): each Step handles the message
// (or the idle poll) that ended the last wait and runs on to the next one.
// What stays in this package is the algorithm, the self-addressed decision
// hand-off and the loss repairs (probes, retransmissions, the responder).
// Spawned with dsys.SpawnStep it is a step task, the only kind
// the simulator runs; Propose is the blocking driver over the same machine,
// for callers on the live runtime that want to wait for the decision
// inline.
//
// With a stable detector (every correct process permanently trusts the same
// correct leader) the algorithm decides in a single round — the property
// measured by experiment E6 against the Ω(n) worst case of rotating
// coordinators (Theorem 3).
package cec

import (
	"slices"

	"repro/internal/consensus"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/rbcast"
)

// Message kinds (suffix order mirrors the phases).
const (
	KindCoord = "cec.coord"
	KindEst   = "cec.est"
	KindProp  = "cec.prop"
	KindAck   = "cec.ack"
	KindNack  = "cec.nack"
	// KindProbe is a catch-up probe broadcast by a process whose wait has
	// been idle for a while; decided processes answer it (and any other
	// instance message) with KindDecided. The paper's model has reliable
	// links, under which neither kind ever crosses the network (the reliable
	// broadcast of the decision reaches everyone); they make the algorithm
	// recover from message loss, e.g. transient partitions. A process also
	// sends itself a KindDecided when it R-delivers the decision: that
	// self-addressed copy is how the delivery reaches its waiting instance.
	KindProbe   = "cec.probe"
	KindDecided = "cec.decided"
)

// phase is the wait a Proposal is in: each is one "wait until" loop of the
// round, re-entered at its top after every message and every idle poll.
type phase uint8

const (
	phRound     phase = iota // between rounds: open the next one
	phCoord                  // Phase 0: adopt a coordinator
	phTrust                  // merged Phases 0–1: trust someone
	phEstimates              // Phase 2: the coordinator gathers estimates
	phProposal               // Phase 3: wait for a proposition
	phReplies                // Phase 4: the coordinator gathers acks and nacks
	phDelivery               // the decision is R-broadcast: wait for our own copy
)

// Proposal is one process's run of one Uniform Consensus instance: the
// consensus.Instance it embeds runs it as a step task that finishes once
// this process has decided, and its Handle and Advance are the algorithm.
// d must be a ◇C detector module of the same process, rb its
// reliable-broadcast module; all processes of the instance must use the
// same Options.Instance.
type Proposal struct {
	consensus.Instance
	d     fd.EventuallyConsistent
	ph    phase
	coord dsys.ProcessID // the current round's coordinator
	idle  bool           // the last wait ended in an idle poll

	// Cross-round message stores, filled by dispatch.
	rounds     map[int]*round           // per round, created on first use
	pending    map[int][]dsys.ProcessID // announcements for rounds not yet entered
	donePhase3 bool
	idlePolls  int    // consecutive empty waits, for catch-up probing
	resend     func() // re-sends the current phase's messages on long idle
}

// NewProposal prepares this process's run of one instance, proposing v. It
// sends nothing until its first Step.
func NewProposal(d fd.EventuallyConsistent, rb *rbcast.Module, v any, opt consensus.Options) *Proposal {
	st := &Proposal{d: d, rounds: make(map[int]*round), pending: make(map[int][]dsys.ProcessID)}
	st.Bind(st, rb, v, opt, "cec.", KindDecided)
	return st
}

// round is what this process adopted, sent and received in one round.
type round struct {
	coord    dsys.ProcessID // the adopted coordinator; None while there is none
	propEst  any            // the non-null proposition this process sent,
	proposed bool           // if it sent one
	acked    dsys.ProcessID // whose proposition this process acknowledged
	// from holds each process's messages, indexed by id-1; ests, acks and
	// nacks count the processes that sent one.
	from              []peerMsgs
	ests, acks, nacks int
}

// peerMsgs is one process's messages in one round: the first estimate and
// the first proposition it sent, and which kinds arrived (got* bits).
type peerMsgs struct {
	est, prop consensus.Msg
	got       uint8
}

const (
	gotEst uint8 = 1 << iota
	gotProp
	gotAck
	gotNack
)

// round returns round r's record, creating it on first use.
func (st *Proposal) round(r int) *round {
	rd := st.rounds[r]
	if rd == nil {
		rd = &round{from: make([]peerMsgs, st.N)}
		st.rounds[r] = rd
	}
	return rd
}

// Propose runs one Uniform Consensus instance at this process, proposing v,
// and blocks until this process decides; it returns the decision. It drives
// a Proposal on the calling task (see NewProposal for the arguments) with
// dsys.RunSteps, so it needs a runtime with blocking primitives (package
// live); on the simulator, step the Proposal instead.
//
// Propose never returns on a process that crashes before deciding (the task
// is unwound by the runtime).
func Propose(p dsys.Proc, d fd.EventuallyConsistent, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
	pr := NewProposal(d, rb, v, opt)
	dsys.RunSteps(p, pr.Step)
	res, _ := pr.Result()
	return res
}

// Step runs the embedded Instance's step and, once this process has
// decided, keeps answering stragglers: under lossy links (outside the
// paper's model) the decision broadcast can be lost, and the relayers are
// gone once everyone here returns. The responder replies to any late
// instance message with the decision, making catch-up possible forever.
// Callers running many instances per process provide a shared responder
// instead (Options.NoResponder).
func (st *Proposal) Step(p dsys.Proc, m *dsys.Message) dsys.Wait {
	w := st.Instance.Step(p, m)
	if w.Done() && !st.Opt.NoResponder {
		st.spawnResponder(p)
	}
	return w
}

// spawnResponder starts the post-decision catch-up task.
func (st *Proposal) spawnResponder(p dsys.Proc) {
	// The responder lives as long as the process: it copies what it needs so
	// that the instance's round stores are not kept alive with it.
	dec, _ := st.Result()
	inst, self, matchAll := st.Opt.Instance, st.Self, st.MatchAll
	wait := dsys.Await(dsys.MatchFunc(func(m *dsys.Message) bool {
		// Never answer another responder. Our own KindDecided is the
		// R-delivery wake-up of an instance that had already decided another
		// way; it is taken (and dropped below) so it does not sit in the
		// mailbox forever.
		return matchAll(m) && (m.Kind != KindDecided || m.From == self)
	}))
	dsys.SpawnStep(p, "cec-responder", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if m != nil && m.From != p.ID() {
			p.Send(m.From, KindDecided, consensus.Msg{Inst: inst, Round: dec.Round, Est: dec.Value})
		}
		return wait
	})
}

// Handle implements consensus.Algorithm for the outcome of one
// poll-interval wait: it dispatches m, or counts an idle poll when m is nil
// and repairs message loss after Options.ProbeAfter of them in a row.
func (st *Proposal) Handle(m *dsys.Message) {
	st.idle = m == nil
	if m != nil {
		st.dispatch(m)
		if m.Kind != KindProbe {
			// Probes are not progress — they mean a peer is stuck. If they
			// reset the idle counter, processes probing each other at the
			// same period suppress one another's retransmissions forever and
			// an instance that lost a phase message (e.g. across a peer's
			// restart) never recovers.
			st.idlePolls = 0
		}
		return
	}
	st.idlePolls++
	if st.idlePolls >= st.Opt.ProbeAfter {
		// A long-idle wait suggests lost messages (the model's links are
		// reliable, but transports and partitions are not). Two repairs:
		// probe the others so any decided process re-sends the decision,
		// and retransmit whatever this phase last sent, in case it was the
		// message that got lost.
		st.idlePolls = 0
		st.sendOthers(KindProbe, consensus.Msg{Round: st.R})
		if st.resend != nil {
			st.resend()
		}
	}
}

// sendOthers sends env to every process but this one.
func (st *Proposal) sendOthers(kind string, env consensus.Msg) {
	for _, q := range st.P.All() {
		if q != st.Self {
			st.Send(q, kind, env)
		}
	}
}

func (st *Proposal) sendNullEst(to dsys.ProcessID, round int) {
	st.Send(to, KindEst, consensus.Msg{Round: round, Null: true})
}

// dispatch routes one received message into the round stores, implementing
// the reactive behaviours of Fig. 4's first two tasks along the way.
func (st *Proposal) dispatch(m *dsys.Message) {
	env := m.Payload.(consensus.Msg)
	r := env.Round
	rd := st.round(r)
	from := &rd.from[m.From-1]
	switch m.Kind {
	case KindCoord:
		if c := rd.coord; c != dsys.None {
			if m.From != c {
				// Another coordinator for a round we already have one for
				// (current or previous): answer with a null estimate so it
				// can complete its Phase 2 (Fig. 4, first task).
				st.sendNullEst(m.From, r)
			}
			return
		}
		if r < st.R {
			// A coordinator of a round we already went past without ever
			// adopting a coordinator (we jumped over it).
			st.sendNullEst(m.From, r)
			return
		}
		// An announcement for the current round's Phase 0 or for a future
		// round: remember it (first announcer first).
		for _, q := range st.pending[r] {
			if q == m.From {
				return
			}
		}
		st.pending[r] = append(st.pending[r], m.From)
	case KindEst:
		if from.got&gotEst == 0 {
			from.got |= gotEst
			from.est = env
			rd.ests++
		}
	case KindProp:
		if from.got&gotProp == 0 {
			from.got |= gotProp
			from.prop = env
		}
		if !env.Null && (r < st.R || (r == st.R && st.donePhase3)) {
			if rd.acked == m.From {
				// A retransmission of the very proposition we adopted: our
				// ack may have been the lost message, so repeat it. Nacking
				// here would contradict the earlier ack and turn a
				// recoverable loss into a failed round.
				st.Send(m.From, KindAck, consensus.Msg{Round: r})
				return
			}
			// Fig. 4, second task: nack a late coordinator's non-null
			// proposition for the current or a previous round.
			st.Send(m.From, KindNack, consensus.Msg{Round: r})
		}
	case KindAck:
		if from.got&gotAck == 0 {
			from.got |= gotAck
			rd.acks++
		}
	case KindNack:
		if from.got&gotNack == 0 {
			from.got |= gotNack
			rd.nacks++
		}
	case KindDecided:
		// Our own R-delivery or a decided peer's answer to a probe; the
		// first one is the decision (uniform integrity: decide at most once).
		st.Decide(env.Est, r)
	}
}

// Advance implements consensus.Algorithm, running the rounds (Phases 0–4).
// Every wait ends as soon as a decision is known, whatever the phase.
func (st *Proposal) Advance() bool {
	for !st.Decided() {
		switch st.ph {
		case phRound:
			st.OpenRound()
			st.donePhase3 = false
			st.resend = nil
			st.ph = phCoord
			if st.Opt.MergedPhase01 {
				st.ph = phTrust
			}

		case phCoord:
			// Phase 0 of Fig. 3: become coordinator when the detector trusts
			// us, otherwise adopt an announced coordinator (possibly of a
			// later round, jumping to it).
			if st.d.Trusted() == st.Self {
				st.round(st.R).coord = st.Self
				st.sendOthers(KindCoord, consensus.Msg{Round: st.R})
				r := st.R
				st.resend = func() { st.sendOthers(KindCoord, consensus.Msg{Round: r}) }
				st.coord = st.Self
			} else if st.coord = st.takePending(); st.coord == dsys.None {
				return false
			}
			// ------------- Phase 1: estimate to the coordinator -------------
			env := consensus.Msg{Round: st.R, Est: st.Estimate, TS: st.TS}
			st.Send(st.coord, KindEst, env)
			if c := st.coord; c != st.Self {
				st.resend = func() { st.Send(c, KindEst, env) }
			}
			st.enterPhase2()

		case phTrust:
			// The Section 5.4 variant: no coordinator announcements; every
			// process sends its estimate directly to its trusted process and
			// null estimates to everyone else, merging Phases 0 and 1 into
			// one communication step at the price of Ω(n²) messages per
			// round.
			if st.coord = st.d.Trusted(); st.coord == dsys.None {
				return false
			}
			st.round(st.R).coord = st.coord
			fanout := func(r int, c dsys.ProcessID, env consensus.Msg) func() {
				return func() {
					for _, q := range st.P.All() {
						if q == c {
							st.Send(q, KindEst, env)
						} else {
							st.sendNullEst(q, r)
						}
					}
				}
			}(st.R, st.coord, consensus.Msg{Round: st.R, Est: st.Estimate, TS: st.TS})
			fanout()
			st.resend = fanout
			st.enterPhase2()

		case phEstimates:
			// ---------------- Phase 2: coordinator gathers estimates --------
			r, rd := st.R, st.round(st.R)
			if !st.repliesIn(rd.ests, gotEst) {
				return false
			}
			var best *consensus.Msg
			nonNull := 0
			for _, q := range st.P.All() { // deterministic iteration
				from := &rd.from[q-1]
				if from.got&gotEst == 0 || from.est.Null {
					continue
				}
				nonNull++
				if best == nil || from.est.TS > best.TS {
					best = &from.est
				}
			}
			var propMsg consensus.Msg
			if nonNull >= st.Maj {
				rd.propEst, rd.proposed = best.Est, true
				propMsg = consensus.Msg{Round: r, Est: best.Est}
			} else {
				propMsg = consensus.Msg{Round: r, Null: true}
			}
			st.SendAll(KindProp, propMsg)
			annMsg := consensus.Msg{Round: r}
			st.resend = func() {
				// Re-announce before re-proposing: a participant that missed
				// the Phase 0 announcement (sent across its crash/restart
				// window, say) is parked in Phase 0 and cannot act on a bare
				// proposition — it would never answer, and the "every
				// non-suspected process answered" wait rule would hang the
				// instance on it. The announcement is idempotent at
				// participants that did see it.
				st.sendOthers(KindCoord, annMsg)
				st.SendAll(KindProp, propMsg)
			}
			st.ph, st.idle = phProposal, false

		case phProposal:
			// ---------------- Phase 3: wait for a proposition ----------------
			if !st.phase3Over() {
				return false
			}
			st.donePhase3 = true
			st.ph = phRound
			if st.round(st.R).proposed && st.coord == st.Self {
				st.ph = phReplies
			}

		case phReplies:
			// ---------------- Phase 4: coordinator gathers acks --------------
			r, rd := st.R, st.round(st.R)
			if !st.repliesIn(rd.acks+rd.nacks, gotAck|gotNack) {
				return false
			}
			st.ph = phRound
			if st.Opt.FirstMajorityCutoff && rd.nacks > 0 {
				// Ablation: Chandra–Toueg semantics — any nack in the first
				// majority kills the round.
				continue
			}
			if rd.acks >= st.Maj {
				// A majority adopted the proposition: R-broadcast the decision
				// (even if some nacks arrived — the improvement over waiting
				// for a unanimous first majority).
				st.BroadcastDecision(r, rd.propEst)
				// The broadcast's self-addressed copy is local, so our own
				// R-delivery is certain and imminent: wait for it here.
				// Opening round r+1 instead would announce a round for an
				// instance that is already decided and draw an estimate and a
				// KindDecided out of every peer.
				st.ph = phDelivery
			}

		case phDelivery:
			return false
		}
	}
	return true
}

// enterPhase2 ends Phases 0–1: the round (which Phase 0 may have jumped) is
// fixed, so it is reported, and the coordinator goes on to gather estimates
// while everyone else waits for a proposition.
func (st *Proposal) enterPhase2() {
	st.ProbeRound()
	st.ph, st.idle = phProposal, false
	if st.coord == st.Self {
		st.ph = phEstimates
	}
}

// phase3Over evaluates the Phase 3 wait, acting on the condition that ends
// it: adopting and acknowledging a non-null proposition (possibly from a
// coordinator other than our own), a null proposition from our coordinator,
// or — only after an idle poll cycle — suspicion of the coordinator (nacked)
// or, in the merged variant, trust moving away from it.
//
// The detector-polled exits act only after an IDLE poll cycle. Besides
// matching the paper's "wait until" semantics (polled conditions have poll
// granularity), this paces rounds: a detector module that transiently
// trusts and suspects the same process (legal before the ◇C consistency
// clause kicks in) would otherwise let rounds complete back to back, each
// round fanning out ~n messages for every message consumed — an exponential
// message explosion in the merged variant, which has no announcement step to
// gate round starts.
func (st *Proposal) phase3Over() bool {
	r, rd, coord := st.R, st.round(st.R), st.coord
	if from, env, ok := rd.nonNullProp(st.P.All()); ok {
		st.Estimate = env.Est
		st.TS = r
		rd.acked = from
		st.Send(from, KindAck, consensus.Msg{Round: r})
		return true
	}
	if c := &rd.from[coord-1]; c.got&gotProp != 0 && c.prop.Null {
		return true
	}
	if !st.idle {
		return false
	}
	if coord != st.Self && st.d.Suspected().Has(coord) {
		st.Send(coord, KindNack, consensus.Msg{Round: r})
		return true
	}
	// In the merged variant there are no coordinator announcements to chase:
	// when trust moves away from the round's coordinator (it crashed without
	// being suspected yet, or the election is still converging) this round
	// cannot conclude for us — give it up and let the next round start under
	// the new trustee. A non-null proposition from the old coordinator that
	// arrives later is nacked by the dispatcher, so no coordinator blocks.
	return st.Opt.MergedPhase01 && st.d.Trusted() != coord
}

// takePending adopts a pending coordinator announcement for the current or a
// later round, jumping rounds if needed (footnote 2). It returns the adopted
// coordinator or None. The other announcers of the rounds it passes get null
// estimates in ascending round order and, within a round, in arrival order,
// so the sends (and the network draws tied to them) do not depend on map
// iteration order.
func (st *Proposal) takePending() dsys.ProcessID {
	best := 0
	for r := range st.pending {
		if r >= st.R && r > best {
			best = r
		}
	}
	if best == 0 {
		return dsys.None
	}
	coord := st.pending[best][0]
	rounds := make([]int, 0, 8) // on the stack unless more rounds are pending
	for r := range st.pending {
		if r <= best {
			rounds = append(rounds, r)
		}
	}
	slices.Sort(rounds)
	for _, r := range rounds {
		for i, q := range st.pending[r] {
			if r == best && i == 0 {
				continue // the adopted coordinator gets our real estimate
			}
			st.sendNullEst(q, r)
		}
		delete(st.pending, r)
	}
	st.R = best
	st.round(best).coord = coord
	return coord
}

// repliesIn is the Phase 2 and Phase 4 wait rule over the current round's
// replies (got of them, each marked by one of the reply bits): a majority of
// replies AND — the paper's rule, unless the FirstMajorityCutoff ablation is
// on — a reply from every process the detector does not suspect.
func (st *Proposal) repliesIn(got int, reply uint8) bool {
	if got < st.Maj {
		return false
	}
	if st.Opt.FirstMajorityCutoff {
		return true
	}
	susp := st.d.Suspected()
	from := st.round(st.R).from
	for _, q := range st.P.All() {
		if q != st.Self && from[q-1].got&reply == 0 && !susp.Has(q) {
			return false
		}
	}
	return true
}

// nonNullProp returns the (unique, by Lemma 1) non-null proposition received
// in the round, if any, looking at the processes in the order given.
func (rd *round) nonNullProp(all []dsys.ProcessID) (dsys.ProcessID, consensus.Msg, bool) {
	for _, q := range all {
		if from := &rd.from[q-1]; from.got&gotProp != 0 && !from.prop.Null {
			return q, from.prop, true
		}
	}
	return dsys.None, consensus.Msg{}, false
}
