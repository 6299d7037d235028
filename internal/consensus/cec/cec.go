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
// self-sends the decision as a KindDecided, so the Propose call waiting in
// any phase wakes and returns at its R-delivery instant. A coordinator that
// R-broadcast the decision waits for exactly that (its own copy is local,
// Validity guarantees it) instead of opening another round. Options.Poll is
// therefore only the interval at which waits re-read the detector and, after
// ProbeAfter idle polls, repair message loss; no fault-free step waits on it.
//
// With a stable detector (every correct process permanently trusts the same
// correct leader) the algorithm decides in a single round — the property
// measured by experiment E6 against the Ω(n) worst case of rotating
// coordinators (Theorem 3).
package cec

import (
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
	// self-addressed copy is how the delivery reaches its waiting Propose.
	KindProbe   = "cec.probe"
	KindDecided = "cec.decided"
)

// Stats reports per-run counters of one process's Propose call.
type Stats struct {
	// Rounds is the number of rounds this process entered.
	Rounds int
	// NacksSent counts nack messages this process sent.
	NacksSent int
}

type state struct {
	p    dsys.Proc
	d    fd.EventuallyConsistent
	rb   *rbcast.Module
	opt  consensus.Options
	self dsys.ProcessID
	n    int
	maj  int

	r        int
	estimate any
	ts       int

	// Cross-round message stores, filled by dispatch.
	coordOf    map[int]dsys.ProcessID   // adopted coordinator per round
	pending    map[int][]dsys.ProcessID // announcements for rounds not yet entered
	ests       map[int]map[dsys.ProcessID]consensus.Msg
	props      map[int]map[dsys.ProcessID]consensus.Msg
	acks       map[int]map[dsys.ProcessID]bool
	nacks      map[int]map[dsys.ProcessID]bool
	propEstOf  map[int]any            // the non-null proposition this process sent per round
	ackedOf    map[int]dsys.ProcessID // whose proposition we acknowledged per round
	donePhase3 bool
	idlePolls  int    // consecutive empty pump cycles, for catch-up probing
	resend     func() // re-sends the current phase's messages on long idle
	matchAll   dsys.MatchFunc
	decided    *consensus.Result
	stats      Stats
}

// Propose runs one Uniform Consensus instance at this process, proposing v.
// It blocks until this process decides and returns the decision. d must be a
// ◇C detector module of the same process, rb its reliable-broadcast module.
// All processes of the instance must use the same Options.Instance.
//
// Propose never returns on a process that crashes before deciding (the task
// is unwound by the runtime).
func Propose(p dsys.Proc, d fd.EventuallyConsistent, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
	return propose(p, d, rb, v, opt, nil)
}

// ProposeStats is Propose with run statistics reported into st.
func ProposeStats(p dsys.Proc, d fd.EventuallyConsistent, rb *rbcast.Module, v any, opt consensus.Options, st *Stats) consensus.Result {
	return propose(p, d, rb, v, opt, st)
}

func propose(p dsys.Proc, d fd.EventuallyConsistent, rb *rbcast.Module, v any, opt consensus.Options, report *Stats) consensus.Result {
	opt = opt.WithDefaults()
	st := &state{
		p: p, d: d, rb: rb, opt: opt,
		self: p.ID(), n: p.N(), maj: dsys.Majority(p.N()),
		estimate: v, ts: 0,
		coordOf:   make(map[int]dsys.ProcessID),
		pending:   make(map[int][]dsys.ProcessID),
		ests:      make(map[int]map[dsys.ProcessID]consensus.Msg),
		props:     make(map[int]map[dsys.ProcessID]consensus.Msg),
		acks:      make(map[int]map[dsys.ProcessID]bool),
		nacks:     make(map[int]map[dsys.ProcessID]bool),
		propEstOf: make(map[int]any),
		ackedOf:   make(map[int]dsys.ProcessID),
		matchAll:  consensus.Match("cec.", opt.Instance),
	}
	cancel := rb.OnDeliver(st.onRDeliver)
	defer cancel()
	for st.checkDecided() == nil {
		st.runRound()
	}
	if report != nil {
		*report = st.stats
	}
	// Keep answering stragglers: under lossy links (outside the paper's
	// model) the decision broadcast can be lost, and the relayers are gone
	// once everyone here returns. The responder replies to any late
	// instance message with the decision, making catch-up possible forever.
	// Callers running many instances per process provide a shared responder
	// instead (Options.NoResponder).
	if !opt.NoResponder {
		st.spawnResponder(p)
	}
	return *st.decided
}

// spawnResponder starts the post-decision catch-up task.
func (st *state) spawnResponder(p dsys.Proc) {
	// The responder lives as long as the process: it copies what it needs so
	// that the instance's round stores are not kept alive with it.
	dec := *st.decided
	inst, self, matchAll := st.opt.Instance, st.self, st.matchAll
	match := dsys.MatchFunc(func(m *dsys.Message) bool {
		// Never answer another responder. Our own KindDecided is the
		// R-delivery wake-up of a Propose that had already decided another
		// way; it is taken (and dropped below) so it does not sit in the
		// mailbox forever.
		return matchAll(m) && (m.Kind != KindDecided || m.From == self)
	})
	p.Spawn("cec-responder", func(p dsys.Proc) {
		for {
			m, ok := p.Recv(match)
			if !ok {
				return
			}
			if m.From == p.ID() {
				continue
			}
			p.Send(m.From, KindDecided, consensus.Msg{Inst: inst, Round: dec.Round, Est: dec.Value})
		}
	})
}

// onRDeliver is the third task of Fig. 4: upon R-delivering a decide
// request, decide accordingly. It runs on the reliable-broadcast relay task
// and touches no state of the Propose task: it hands the decision over as a
// self-addressed KindDecided, which never reaches a transport and which the
// dispatcher treats like a decided peer's answer.
func (st *state) onRDeliver(p dsys.Proc, _ dsys.ProcessID, payload any) {
	dec, ok := payload.(consensus.Decide)
	if !ok || dec.Inst != st.opt.Instance {
		return
	}
	p.Send(p.ID(), KindDecided, consensus.Msg{Inst: dec.Inst, Round: dec.Round, Est: dec.Value})
}

// checkDecided returns the decision once the dispatcher has seen one.
func (st *state) checkDecided() *consensus.Result {
	if st.decided == nil && st.opt.PreDecided != nil {
		if v, r, ok := st.opt.PreDecided(); ok {
			st.decided = &consensus.Result{Value: v, Round: r, At: st.p.Now()}
		}
	}
	return st.decided
}

// pump waits up to the poll interval for one consensus message and
// dispatches it, reporting whether a message was handled (false means the
// full poll interval elapsed idle).
func (st *state) pump() bool {
	if m, ok := st.p.RecvTimeout(st.matchAll, st.opt.Poll); ok {
		st.dispatch(m)
		if m.Kind != KindProbe {
			// Probes are not progress — they mean a peer is stuck. If they
			// reset the idle counter, processes probing each other at the
			// same period suppress one another's retransmissions forever and
			// an instance that lost a phase message (e.g. across a peer's
			// restart) never recovers.
			st.idlePolls = 0
		}
		return true
	}
	st.idlePolls++
	if st.idlePolls >= st.opt.ProbeAfter {
		// A long-idle wait suggests lost messages (the model's links are
		// reliable, but transports and partitions are not). Two repairs:
		// probe the others so any decided process re-sends the decision,
		// and retransmit whatever this phase last sent, in case it was the
		// message that got lost.
		st.idlePolls = 0
		st.sendAll(KindProbe, consensus.Msg{Round: st.r}, false)
		if st.resend != nil {
			st.resend()
		}
	}
	return false
}

func (st *state) send(to dsys.ProcessID, kind string, env consensus.Msg) {
	env.Inst = st.opt.Instance
	st.p.Send(to, kind, env)
}

func (st *state) sendAll(kind string, env consensus.Msg, includeSelf bool) {
	for _, q := range st.p.All() {
		if q != st.self || includeSelf {
			st.send(q, kind, env)
		}
	}
}

func (st *state) sendNullEst(to dsys.ProcessID, round int) {
	st.send(to, KindEst, consensus.Msg{Round: round, Null: true})
}

// dispatch routes one received message into the round stores, implementing
// the reactive behaviours of Fig. 4's first two tasks along the way.
func (st *state) dispatch(m *dsys.Message) {
	env := m.Payload.(consensus.Msg)
	r := env.Round
	switch m.Kind {
	case KindCoord:
		if c, adopted := st.coordOf[r]; adopted {
			if m.From != c {
				// Another coordinator for a round we already have one for
				// (current or previous): answer with a null estimate so it
				// can complete its Phase 2 (Fig. 4, first task).
				st.sendNullEst(m.From, r)
			}
			return
		}
		if r < st.r {
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
		if !env.Null && (r < st.r || (r == st.r && st.donePhase3)) {
			if st.ackedOf[r] == m.From {
				// A retransmission of the very proposition we adopted: our
				// ack may have been the lost message, so repeat it. Nacking
				// here would contradict the earlier ack and turn a
				// recoverable loss into a failed round.
				st.send(m.From, KindAck, consensus.Msg{Round: r})
				return
			}
			// Fig. 4, second task: nack a late coordinator's non-null
			// proposition for the current or a previous round.
			st.send(m.From, KindNack, consensus.Msg{Round: r})
			st.stats.NacksSent++
		}
	case KindAck:
		if st.acks[r] == nil {
			st.acks[r] = make(map[dsys.ProcessID]bool)
		}
		st.acks[r][m.From] = true
	case KindNack:
		if st.nacks[r] == nil {
			st.nacks[r] = make(map[dsys.ProcessID]bool)
		}
		st.nacks[r][m.From] = true
	case KindDecided:
		// Our own R-delivery or a decided peer's answer to a probe; the
		// first one is the decision (uniform integrity: decide at most once).
		if st.decided == nil {
			st.decided = &consensus.Result{Value: env.Est, Round: r, At: st.p.Now()}
		}
	}
}

// runRound executes one full round (Phases 0–4).
func (st *state) runRound() {
	st.r++
	st.donePhase3 = false
	st.resend = nil
	st.stats.Rounds++
	if st.opt.RoundProbe != nil {
		st.opt.RoundProbe.Set(st.self, st.r)
	}

	var coord dsys.ProcessID
	if st.opt.MergedPhase01 {
		coord = st.mergedPhase01()
	} else {
		coord = st.phase0()
		if st.checkDecided() != nil {
			return
		}
		// ------------- Phase 1: estimate to the coordinator -------------
		env := consensus.Msg{Round: st.r, Est: st.estimate, TS: st.ts}
		st.send(coord, KindEst, env)
		if coord != st.self {
			c := coord
			st.resend = func() { st.send(c, KindEst, env) }
		}
	}
	if st.checkDecided() != nil {
		return
	}
	r := st.r // Phase 0 may have jumped forward
	if st.opt.RoundProbe != nil {
		st.opt.RoundProbe.Set(st.self, st.r)
	}

	// ---------------- Phase 2: coordinator gathers estimates ------------
	if coord == st.self {
		st.waitReplies(r, st.ests)
		if st.checkDecided() != nil {
			return
		}
		var best *consensus.Msg
		nonNull := 0
		for _, q := range dsys.Pids(st.n) { // deterministic iteration
			env, ok := st.ests[r][q]
			if !ok || env.Null {
				continue
			}
			nonNull++
			if best == nil || env.TS > best.TS {
				e := env
				best = &e
			}
		}
		var propMsg consensus.Msg
		if nonNull >= st.maj {
			st.propEstOf[r] = best.Est
			propMsg = consensus.Msg{Round: r, Est: best.Est}
		} else {
			propMsg = consensus.Msg{Round: r, Null: true}
		}
		st.sendAll(KindProp, propMsg, true)
		annMsg := consensus.Msg{Round: r}
		st.resend = func() {
			// Re-announce before re-proposing: a participant that missed the
			// Phase 0 announcement (sent across its crash/restart window, say)
			// is parked in Phase 0 and cannot act on a bare proposition — it
			// would never answer, and the "every non-suspected process
			// answered" wait rule would hang the instance on it. The
			// announcement is idempotent at participants that did see it.
			st.sendAll(KindCoord, annMsg, false)
			st.sendAll(KindProp, propMsg, true)
		}
	}

	// ---------------- Phase 3: wait for a proposition --------------------
	// The detector-polled exits (suspicion, merged-mode trust change) act
	// only after an IDLE poll cycle — a pump in which no message arrived.
	// Besides matching the paper's "wait until" semantics (polled
	// conditions have poll granularity), this paces rounds: a detector
	// module that transiently trusts and suspects the same process (legal
	// before the ◇C consistency clause kicks in) would otherwise let
	// rounds complete back to back, each round fanning out ~n messages for
	// every message consumed — an exponential message explosion in the
	// merged variant, which has no announcement step to gate round starts.
	idle := false
	for {
		if st.checkDecided() != nil {
			st.donePhase3 = true
			return
		}
		if from, env, ok := st.nonNullProp(r); ok {
			// Adopt the proposition and acknowledge it — possibly to a
			// coordinator other than our own.
			st.estimate = env.Est
			st.ts = r
			st.ackedOf[r] = from
			st.send(from, KindAck, consensus.Msg{Round: r})
			break
		}
		if env, ok := st.props[r][coord]; ok && env.Null {
			// Null proposition from our coordinator: move on.
			break
		}
		if idle {
			if coord != st.self && st.d.Suspected().Has(coord) {
				st.send(coord, KindNack, consensus.Msg{Round: r})
				st.stats.NacksSent++
				break
			}
			if st.opt.MergedPhase01 && st.d.Trusted() != coord {
				// In the merged variant there are no coordinator
				// announcements to chase: when trust moves away from the
				// round's coordinator (it crashed without being suspected
				// yet, or the election is still converging) this round
				// cannot conclude for us — give it up and let the next
				// round start under the new trustee. A non-null proposition
				// from the old coordinator that arrives later is nacked by
				// the dispatcher, so no coordinator blocks.
				break
			}
		}
		idle = !st.pump()
	}
	st.donePhase3 = true

	// ---------------- Phase 4: coordinator gathers acks ------------------
	if coord == st.self {
		if _, proposed := st.propEstOf[r]; !proposed {
			return
		}
		st.waitAckNack(r)
		if st.checkDecided() != nil {
			return
		}
		if st.opt.FirstMajorityCutoff && len(st.nacks[r]) > 0 {
			// Ablation: Chandra–Toueg semantics — any nack in the first
			// majority kills the round.
			return
		}
		if len(st.acks[r]) >= st.maj {
			// A majority adopted the proposition: R-broadcast the decision
			// (even if some nacks arrived — the improvement over waiting
			// for a unanimous first majority).
			st.rb.Broadcast(st.p, consensus.Decide{
				Inst:  st.opt.Instance,
				Round: r,
				Value: st.propEstOf[r],
			})
			// The broadcast's self-addressed copy is local, so our own
			// R-delivery is certain and imminent: wait for it here. Opening
			// round r+1 instead would announce a round for an instance that
			// is already decided and draw an estimate and a KindDecided out
			// of every peer.
			for st.checkDecided() == nil {
				st.pump()
			}
		}
	}
}

// phase0 implements the announced-coordinator Phase 0 of Fig. 3 and returns
// the adopted coordinator (possibly after jumping rounds). It returns None
// only when interrupted by a decision.
func (st *state) phase0() dsys.ProcessID {
	for {
		if st.checkDecided() != nil {
			return dsys.None
		}
		if st.d.Trusted() == st.self {
			// We consider ourselves leader: become coordinator of the
			// current round and announce it.
			st.coordOf[st.r] = st.self
			st.sendAll(KindCoord, consensus.Msg{Round: st.r}, false)
			r := st.r
			st.resend = func() { st.sendAll(KindCoord, consensus.Msg{Round: r}, false) }
			return st.self
		}
		if c := st.takePending(); c != dsys.None {
			return c
		}
		st.pump()
	}
}

// mergedPhase01 implements the Section 5.4 variant: no coordinator
// announcements; every process sends its estimate directly to its trusted
// process and null estimates to everyone else, merging Phases 0 and 1 into
// one communication step at the price of Ω(n²) messages per round.
func (st *state) mergedPhase01() dsys.ProcessID {
	var coord dsys.ProcessID
	for {
		if st.checkDecided() != nil {
			return dsys.None
		}
		if coord = st.d.Trusted(); coord != dsys.None {
			break
		}
		st.pump()
	}
	st.coordOf[st.r] = coord
	fanout := func(r int, c dsys.ProcessID, env consensus.Msg) func() {
		return func() {
			for _, q := range st.p.All() {
				if q == c {
					st.send(q, KindEst, env)
				} else {
					st.sendNullEst(q, r)
				}
			}
		}
	}(st.r, coord, consensus.Msg{Round: st.r, Est: st.estimate, TS: st.ts})
	fanout()
	st.resend = fanout
	return coord
}

// takePending adopts a pending coordinator announcement for the current or a
// later round, jumping rounds if needed (footnote 2). It returns the adopted
// coordinator or None.
func (st *state) takePending() dsys.ProcessID {
	best := 0
	for r := range st.pending {
		if r >= st.r && r > best {
			best = r
		}
	}
	if best == 0 {
		return dsys.None
	}
	coord := st.pending[best][0]
	for r, anns := range st.pending {
		if r > best {
			continue
		}
		for i, q := range anns {
			if r == best && i == 0 {
				continue // the adopted coordinator gets our real estimate
			}
			st.sendNullEst(q, r)
		}
		delete(st.pending, r)
	}
	st.r = best
	st.coordOf[best] = coord
	return coord
}

// waitReplies implements the Phase 2 wait: a majority of replies AND — the
// paper's rule, unless the FirstMajorityCutoff ablation is on — a reply from
// every process the detector does not suspect.
func (st *state) waitReplies(r int, store map[int]map[dsys.ProcessID]consensus.Msg) {
	for {
		if st.checkDecided() != nil {
			return
		}
		if len(store[r]) >= st.maj {
			if st.opt.FirstMajorityCutoff {
				return
			}
			susp := st.d.Suspected()
			all := true
			for _, q := range dsys.Pids(st.n) {
				if q == st.self {
					continue
				}
				if _, got := store[r][q]; !got && !susp.Has(q) {
					all = false
					break
				}
			}
			if all {
				return
			}
		}
		st.pump()
	}
}

// waitAckNack implements the Phase 4 wait, counting ack and nack replies.
func (st *state) waitAckNack(r int) {
	for {
		if st.checkDecided() != nil {
			return
		}
		replied := func(q dsys.ProcessID) bool {
			return st.acks[r][q] || st.nacks[r][q]
		}
		total := len(st.acks[r]) + len(st.nacks[r])
		if total >= st.maj {
			if st.opt.FirstMajorityCutoff {
				return
			}
			susp := st.d.Suspected()
			all := true
			for _, q := range dsys.Pids(st.n) {
				if q == st.self {
					continue
				}
				if !replied(q) && !susp.Has(q) {
					all = false
					break
				}
			}
			if all {
				return
			}
		}
		st.pump()
	}
}

// nonNullProp returns the (unique, by Lemma 1) non-null proposition received
// for round r, if any.
func (st *state) nonNullProp(r int) (dsys.ProcessID, consensus.Msg, bool) {
	for _, q := range dsys.Pids(st.n) {
		if env, ok := st.props[r][q]; ok && !env.Null {
			return q, env, true
		}
	}
	return dsys.None, consensus.Msg{}, false
}
