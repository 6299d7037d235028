package consensus

import (
	"repro/internal/dsys"
	"repro/internal/rbcast"
)

// Algorithm is one consensus algorithm's part of an Instance: how it files
// the outcome of a wait and how it runs its rounds. Each algorithm's
// Proposal implements it and binds itself to the Instance it embeds once,
// in its constructor, so a Step makes no call through a func value.
type Algorithm interface {
	// Handle takes the message that ended the last wait, or nil when the
	// wait ended in an idle poll.
	Handle(m *dsys.Message)
	// Advance runs the rounds from the wait the instance is in until it
	// must wait for a message again (false) or has decided (true).
	Advance() bool
}

// Instance is what the Proposals of cec, ctc and mrc share: the step-task
// prologue and epilogue, the poll wait, the decision — taken at most once,
// from R-delivery or Options.PreDecided — round opening, and the estimate
// with its timestamp. A Proposal embeds it, which gives it Step and Result,
// and supplies the Algorithm. On a process that crashes before deciding
// the task is unwound by the runtime and never finishes.
type Instance struct {
	RB  *rbcast.Module
	Opt Options
	// P is the process's view in the current step; Self, N and Maj are
	// read from it by the first step.
	P      dsys.Proc
	Self   dsys.ProcessID
	N, Maj int
	// R is the current round and Rounds the number of rounds entered.
	R, Rounds int
	// Estimate is this process's estimate and TS the round it was adopted
	// in (0 for its own proposal).
	Estimate any
	TS       int
	// MatchAll selects every message of the instance.
	MatchAll dsys.MatchFunc

	alg Algorithm
	// The R-delivered decision reaches the instance as a self-addressed
	// relayKind message if relayKind is set, or else on decidedCh.
	relayKind  string
	decidedCh  chan Result
	cancel     func() // ends the R-delivery subscription
	decided    Result
	hasDecided bool
	started    bool
	done       bool
}

// Bind makes in the instance of alg, proposing v with options opt. prefix
// starts the kinds of the algorithm's messages. relayKind, if not empty, is
// the kind under which R-delivery self-sends the decision: the wake-up is
// then a traced message that ends any wait at the R-delivery instant, and
// Handle must pass it to Decide. Otherwise R-delivery hands the decision
// over on a one-slot channel that Decided reads.
func (in *Instance) Bind(alg Algorithm, rb *rbcast.Module, v any, opt Options, prefix, relayKind string) {
	opt = opt.WithDefaults()
	*in = Instance{RB: rb, Opt: opt, Estimate: v, MatchAll: Match(prefix, opt.Instance), alg: alg, relayKind: relayKind}
	if relayKind == "" {
		in.decidedCh = make(chan Result, 1)
	}
}

// Step implements dsys.StepFunc: it handles m — the message that ended the
// last wait, nil for the first step and for an idle poll — and runs the
// instance on to its next wait, which is always one poll interval for any
// message of the instance. Once this process has decided it finishes.
func (in *Instance) Step(p dsys.Proc, m *dsys.Message) dsys.Wait {
	in.P = p
	if !in.started {
		in.started = true
		in.Self, in.N, in.Maj = p.ID(), p.N(), dsys.Majority(p.N())
		in.cancel = in.RB.OnDeliver(in.onRDeliver)
	} else {
		in.alg.Handle(m)
	}
	if !in.alg.Advance() {
		return dsys.AwaitTimeout(in.MatchAll, in.Opt.Poll)
	}
	in.done = true
	in.cancel()
	return dsys.Finished
}

// Result returns this process's decision and true once it has decided (the
// instance has finished).
func (in *Instance) Result() (Result, bool) {
	return in.decided, in.done
}

// onRDeliver is the R-delivery handler. It runs on the reliable-broadcast
// relay task — on the live runtime another goroutine — so it touches no
// state of the instance and only hands the decision over.
func (in *Instance) onRDeliver(p dsys.Proc, _ dsys.ProcessID, payload any) {
	dec, ok := payload.(Decide)
	if !ok || dec.Inst != in.Opt.Instance {
		return
	}
	if in.relayKind != "" {
		p.Send(p.ID(), in.relayKind, Msg{Inst: dec.Inst, Round: dec.Round, Est: dec.Value})
		return
	}
	select {
	case in.decidedCh <- Result{Value: dec.Value, Round: dec.Round, At: p.Now()}:
	default:
	}
}

// Decide records the decision v of round r, unless this process has
// already decided (uniform integrity: decide at most once).
func (in *Instance) Decide(v any, r int) {
	if !in.hasDecided {
		in.decided, in.hasDecided = Result{Value: v, Round: r, At: in.P.Now()}, true
	}
}

// Decided reports whether this process has decided, first taking a
// decision handed over on the channel or reported by Options.PreDecided.
func (in *Instance) Decided() bool {
	if in.hasDecided {
		return true
	}
	select {
	case res := <-in.decidedCh:
		in.decided, in.hasDecided = res, true
		return true
	default:
	}
	if in.Opt.PreDecided != nil {
		if v, r, ok := in.Opt.PreDecided(); ok {
			in.Decide(v, r)
		}
	}
	return in.hasDecided
}

// OpenRound enters round R+1.
func (in *Instance) OpenRound() {
	in.R++
	in.Rounds++
	in.ProbeRound()
}

// ProbeRound reports the current round to Options.RoundProbe, if set.
func (in *Instance) ProbeRound() {
	if in.Opt.RoundProbe != nil {
		in.Opt.RoundProbe.Set(in.Self, in.R)
	}
}

// Send sends env, stamped with the instance, to process to.
func (in *Instance) Send(to dsys.ProcessID, kind string, env Msg) {
	env.Inst = in.Opt.Instance
	in.P.Send(to, kind, env)
}

// SendAll sends env to every process, this one included, in id order.
func (in *Instance) SendAll(kind string, env Msg) {
	for _, q := range in.P.All() {
		in.Send(q, kind, env)
	}
}

// BroadcastDecision R-broadcasts v as the decision of round r.
func (in *Instance) BroadcastDecision(r int, v any) {
	in.RB.Broadcast(in.P, Decide{Inst: in.Opt.Instance, Round: r, Value: v})
}
