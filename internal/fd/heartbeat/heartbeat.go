// Package heartbeat implements the classical all-to-all heartbeat failure
// detector: every process periodically sends I-AM-ALIVE to every other
// process and suspects any process whose heartbeats stop arriving within an
// adaptive per-process timeout.
//
// In the partial-synchrony model of Section 4 (GST + unknown bound Δ) this
// is the Chandra–Toueg style implementation of class ◇P: crashed processes
// stop sending and are eventually permanently suspected by everyone (strong
// completeness), and every false suspicion of a correct process increases
// the timeout for it, so after GST each correct process is falsely suspected
// at most a bounded number of times (eventual strong accuracy).
//
// Cost: n·(n−1) ≈ n² messages per heartbeat period — the figure the paper
// compares its ◇C→◇P transformation against in Section 4.
package heartbeat

import (
	"sync"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
)

// KindAlive is the message kind of heartbeats.
const KindAlive = "hb.alive"

// TimeoutPolicy selects how per-process timeouts adapt.
type TimeoutPolicy int

const (
	// PolicyAdditive is the paper-style policy: the timeout for q grows by
	// TimeoutIncrement each time a false suspicion of q is retracted. It
	// adapts monotonically, which is what the eventual-accuracy proofs use,
	// but it never tightens: after pre-GST chaos the timeout stays inflated
	// and detection is slow forever.
	PolicyAdditive TimeoutPolicy = iota
	// PolicyJacobson estimates each sender's heartbeat inter-arrival time
	// with the smoothed mean/deviation filter of TCP's RTO computation
	// (Jacobson/Karels): timeout = srtt + 4·rttvar + Period. It tracks the
	// link's actual behaviour, tightening again after chaos subsides, at
	// the cost of the clean adversarial eventual-accuracy argument (a
	// sufficiently erratic post-GST link could keep causing mistakes; on
	// bounded-jitter links it converges). On a retracted false suspicion it
	// additionally folds the observed gap into the estimate, so repeated
	// mistakes still push the timeout up.
	PolicyJacobson
)

// Options configures the detector. Zero fields take defaults.
type Options struct {
	// Period η between heartbeats. Default 10ms.
	Period time.Duration
	// InitialTimeout is the starting value of every per-process timeout.
	// Default 3·Period.
	InitialTimeout time.Duration
	// TimeoutIncrement is added to a process's timeout each time a false
	// suspicion of it is corrected (PolicyAdditive). Default 2·Period.
	TimeoutIncrement time.Duration
	// CheckInterval is how often expiries are evaluated. Default Period/2,
	// at least 1ns.
	CheckInterval time.Duration
	// Adaptive disables timeout growth when false — the ablation of
	// EXPERIMENTS.md showing eventual accuracy fail for timeouts below Δ.
	// Default true (set via New; the zero Options means adaptive).
	FixedTimeout bool
	// Policy selects the adaptation scheme (default PolicyAdditive).
	// Ignored when FixedTimeout is set.
	Policy TimeoutPolicy
}

func (o *Options) fill() {
	if o.Period <= 0 {
		o.Period = 10 * time.Millisecond
	}
	if o.InitialTimeout <= 0 {
		o.InitialTimeout = 3 * o.Period
	}
	if o.TimeoutIncrement <= 0 {
		o.TimeoutIncrement = 2 * o.Period
	}
	if o.CheckInterval <= 0 {
		o.CheckInterval = max(o.Period/2, time.Nanosecond)
	}
}

// Detector is a heartbeat ◇P module attached to one process. It implements
// fd.Suspector (and, composed with fd.FirstNonSuspected, yields ◇C — see
// package ec).
//
// This detector really does monitor everyone, so its state is one dense
// per-peer table, and the estimator's second table exists only under the
// policy that reads it.
type Detector struct {
	opt  Options
	self dsys.ProcessID
	n    int

	mu        sync.Mutex
	suspected fd.Set
	// peers is indexed by process id; entry 0 and the own entry stay zero.
	peers []peer
	// est is the Jacobson estimator state, indexed like peers; nil unless
	// the policy is PolicyJacobson with adaptation on.
	est []estimate

	falseSusp int
}

// peer is what the detector knows about one monitored process.
type peer struct {
	lastHeard time.Duration
	timeout   time.Duration
}

// estimate is the smoothed inter-arrival mean and deviation of one sender.
type estimate struct {
	srtt, rttvar time.Duration
}

var _ fd.Suspector = (*Detector)(nil)

// Start attaches a heartbeat detector to p's process and spawns its tasks.
func Start(p dsys.Proc, opt Options) *Detector {
	opt.fill()
	d := &Detector{opt: opt, self: p.ID(), n: p.N(), peers: make([]peer, p.N()+1)}
	now := p.Now()
	for _, q := range p.All() {
		if q != d.self {
			d.peers[q] = peer{lastHeard: now, timeout: opt.InitialTimeout}
		}
	}
	if opt.Policy == PolicyJacobson && !opt.FixedTimeout {
		d.est = make([]estimate, p.N()+1)
	}
	// Declared as loop tasks so the simulator can run them goroutine-free;
	// spawn order and task shape exactly mirror the blocking originals.
	dsys.SpawnTickLoop(p, "hb-send", dsys.TickLoop{Period: opt.Period, Immediate: true, Fn: d.sendStep})
	dsys.SpawnRecvLoop(p, "hb-recv", d.recvStep, KindAlive)
	dsys.SpawnTickLoop(p, "hb-check", dsys.TickLoop{Period: opt.CheckInterval, Fn: d.checkStep})
	return d
}

// Suspected implements fd.Suspector.
func (d *Detector) Suspected() fd.Set {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suspected.Clone()
}

// FalseSuspicions returns how many suspicions were retracted because a
// heartbeat from the suspect arrived later.
func (d *Detector) FalseSuspicions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.falseSusp
}

// Timeout returns the current adaptive timeout for q.
func (d *Detector) Timeout(q dsys.ProcessID) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if q < 1 || int(q) > d.n {
		return 0
	}
	return d.peers[q].timeout
}

// sendStep is one heartbeat period: I-AM-ALIVE to everyone else.
func (d *Detector) sendStep(p dsys.Proc) {
	for _, q := range p.All() {
		if q != d.self {
			p.Send(q, KindAlive, nil)
		}
	}
}

// recvStep handles one I-AM-ALIVE message.
func (d *Detector) recvStep(p dsys.Proc, m *dsys.Message) {
	d.mu.Lock()
	now := p.Now()
	pr := &d.peers[m.From]
	gap := now - pr.lastHeard
	pr.lastHeard = now
	wasSuspected := d.suspected.Has(m.From)
	if wasSuspected {
		d.suspected.Remove(m.From)
		d.falseSusp++
	}
	if !d.opt.FixedTimeout {
		switch d.opt.Policy {
		case PolicyAdditive:
			if wasSuspected {
				pr.timeout += d.opt.TimeoutIncrement
			}
		case PolicyJacobson:
			d.observeGapLocked(m.From, gap)
		}
	}
	d.mu.Unlock()
}

// observeGapLocked folds one inter-arrival gap into the Jacobson estimator
// and recomputes the timeout: srtt + 4·rttvar + Period.
func (d *Detector) observeGapLocked(q dsys.ProcessID, gap time.Duration) {
	if gap <= 0 {
		return
	}
	e := &d.est[q]
	if e.srtt == 0 {
		e.srtt = gap
		e.rttvar = gap / 2
	} else {
		diff := gap - e.srtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar += (diff - e.rttvar) / 4
		e.srtt += (gap - e.srtt) / 8
	}
	d.peers[q].timeout = max(e.srtt+4*e.rttvar+d.opt.Period, d.opt.Period)
}

// checkStep is one expiry evaluation over all monitored processes.
func (d *Detector) checkStep(p dsys.Proc) {
	now := p.Now()
	d.mu.Lock()
	for _, q := range p.All() {
		if q == d.self || d.suspected.Has(q) {
			continue
		}
		if pr := d.peers[q]; now-pr.lastHeard > pr.timeout {
			d.suspected.Add(q)
		}
	}
	d.mu.Unlock()
}
