// Package transform implements the paper's central algorithm (Fig. 2,
// Section 4): transforming any ◇C failure detector D into a ◇P failure
// detector in a model of partial synchrony.
//
// The eventually agreed trusted process p_leader provided by D builds a
// global list of suspected processes and propagates it:
//
//	Task 1  (leader)  every Φ: send the local suspect list to all others.
//	Task 2  (all)     every Φ: send I-AM-ALIVE to the current trusted
//	                  process (unless that is the process itself).
//	Task 3  (leader)  suspect every process whose I-AM-ALIVE has not been
//	                  seen within its timeout Δp(q).
//	Task 4  (leader)  on I-AM-ALIVE from a suspected q: stop suspecting q
//	                  and increase Δp(q).
//	Task 5  (all)     on receiving a suspect list from the current trusted
//	                  process: adopt it.
//
// Only the leader's n−1 input links need to be partially synchronous and
// its n−1 output links fair-lossy (Theorem 1); nothing is required of the
// other links, and eventually only those 2(n−1) links carry messages. The
// algorithm queries D only for its trusted process, so it equally transforms
// a plain Ω detector into ◇P — a property the tests exercise.
//
// The Piggyback option implements the optimization discussed after Theorem
// 1: when the underlying detector's leader already broadcasts periodically
// (fd.Beacon, e.g. the LeaderBeat Ω detector), the suspect list rides on
// those broadcasts, Task 1 is suppressed, and the transformation itself adds
// only the n−1 I-AM-ALIVE messages per period.
package transform

import (
	"slices"
	"sync"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
)

// Message kinds.
const (
	// KindAlive is the I-AM-ALIVE message from every process to its
	// trusted process (Task 2).
	KindAlive = "tp.alive"
	// KindList carries the leader's suspect list ([]dsys.ProcessID) to all
	// processes (Task 1).
	KindList = "tp.list"
)

// Options configures the transformation. Zero fields take defaults.
type Options struct {
	// Period Φ of Tasks 1 and 2. Default 10ms.
	Period time.Duration
	// InitialTimeout is the starting value of every Δp(q). Default
	// 3·Period.
	InitialTimeout time.Duration
	// TimeoutIncrement is added to Δp(q) on each retracted suspicion (Task
	// 4). Default 2·Period.
	TimeoutIncrement time.Duration
	// CheckInterval is how often Task 3 evaluates expiries. Default
	// Period/2.
	CheckInterval time.Duration
	// Piggyback, when non-nil, suppresses Task 1 and rides the suspect
	// list on the beacon's leader broadcasts instead.
	Piggyback fd.Beacon
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

// peer is the leader's view of one monitored process.
type peer struct {
	lastAlive time.Duration // last I-AM-ALIVE seen
	timeout   time.Duration // Δp(q)
}

// Detector is the ◇P module produced by the transformation at one process.
//
// Its memory follows its role. Tasks 3 and 4 are the leader's, so the per-peer
// table they work on exists only at a process that has been leader: a
// follower holds its adopted list, a few scalars and nothing that grows with
// n. Until the table exists every peer has the values Start used to write
// for it — last heard at start, timeout InitialTimeout — and that default is
// exact, not approximate: Task 3 reads lastAlive only through
// max(lastAlive, leaderSince), so nothing a process hears before its first
// stint as leader can outlive the leaderSince that stint sets.
type Detector struct {
	opt   Options
	self  dsys.ProcessID
	n     int
	under fd.LeaderOracle

	mu   sync.Mutex
	list fd.Set // output suspect list
	// listMsg is list as the payload the leader sends, an immutable
	// []dsys.ProcessID: built and boxed once per change of list, then shared
	// by every message of every period until the next change. nil when
	// stale.
	listMsg any
	// peers is indexed by process id (entry 0 and the own entry unused); nil
	// until this process first finds itself leader, see ensurePeers.
	peers []peer
	// leaderSince is when this process last became leader in its own view;
	// it bounds the freshness reference for Task 3 so stale lastAlive
	// values from a previous leadership stint do not cause instant
	// suspicions.
	leaderSince time.Duration
	wasLeader   bool
	falseSusp   int
	adoptions   int
}

var _ fd.Suspector = (*Detector)(nil)

// Start attaches the transformation to p's process, reading the trusted
// process from under (a ◇C or Ω detector).
func Start(p dsys.Proc, under fd.LeaderOracle, opt Options) *Detector {
	opt.fill()
	d := &Detector{opt: opt, self: p.ID(), n: p.N(), under: under}
	if opt.Piggyback != nil {
		opt.Piggyback.SetBeaconPayload(func() any {
			d.mu.Lock()
			defer d.mu.Unlock()
			return d.listMsgLocked()
		})
		opt.Piggyback.OnBeacon(func(from dsys.ProcessID, payload any) {
			if list, ok := payload.([]dsys.ProcessID); ok {
				d.adopt(p, from, list)
			}
		})
	} else {
		dsys.SpawnTickLoop(p, "tp-task1", dsys.TickLoop{Period: opt.Period, Immediate: true, Fn: d.task1Step})
	}
	// Declared as loop tasks so the simulator can run them goroutine-free;
	// spawn order and task shape exactly mirror the blocking originals. The
	// combined Task 3+4 keeps its structure: the receive half (Task 4) is
	// spawned from the check loop's Setup hook, at the very point the
	// blocking task34 spawned it, so task creation order is unchanged.
	dsys.SpawnTickLoop(p, "tp-task2", dsys.TickLoop{Period: opt.Period, Immediate: true, Fn: d.task2Step})
	dsys.SpawnTickLoop(p, "tp-task34", dsys.TickLoop{
		Period: opt.CheckInterval,
		Setup: func(p dsys.Proc) {
			dsys.SpawnRecvLoop(p, "tp-task4", d.task4Step, KindAlive)
		},
		Fn: d.task3Step,
	})
	if opt.Piggyback == nil {
		dsys.SpawnRecvLoop(p, "tp-task5", d.task5Step, KindList)
	}
	return d
}

// Suspected implements fd.Suspector; its output satisfies the ◇P properties
// under the link assumptions of Theorem 1.
func (d *Detector) Suspected() fd.Set {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.list.Clone()
}

// FalseSuspicions returns how many leader-side suspicions were retracted by
// Task 4.
func (d *Detector) FalseSuspicions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.falseSusp
}

// Adoptions returns how many suspect lists were adopted from the trusted
// process (Task 5).
func (d *Detector) Adoptions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.adoptions
}

// listMsgLocked returns the current suspect list as a message payload, a
// []dsys.ProcessID the receivers share and nobody modifies. Callers hold
// d.mu.
func (d *Detector) listMsgLocked() any {
	if d.listMsg == nil {
		d.listMsg = d.list.Members()
	}
	return d.listMsg
}

// ensurePeers allocates the leader's per-peer table with the defaults every
// peer has had so far. Callers hold d.mu.
func (d *Detector) ensurePeers() {
	if d.peers != nil {
		return
	}
	d.peers = make([]peer, d.n+1)
	for q := range d.peers {
		d.peers[q].timeout = d.opt.InitialTimeout
	}
}

// isLeader reports whether this process currently considers itself leader,
// tracking leadership transitions for Task 3's freshness reference.
func (d *Detector) isLeader(now time.Duration) bool {
	leader := d.under.Trusted() == d.self
	d.mu.Lock()
	defer d.mu.Unlock()
	if leader && !d.wasLeader {
		d.leaderSince = now
		d.ensurePeers()
	}
	d.wasLeader = leader
	return leader
}

// task1Step: the leader periodically sends its suspect list to everyone
// else.
func (d *Detector) task1Step(p dsys.Proc) {
	if !d.isLeader(p.Now()) {
		return
	}
	d.mu.Lock()
	list := d.listMsgLocked()
	d.mu.Unlock()
	for _, q := range p.All() {
		if q != d.self {
			p.Send(q, KindList, list)
		}
	}
}

// task2Step: everyone periodically tells its trusted process it is alive.
func (d *Detector) task2Step(p dsys.Proc) {
	if t := d.under.Trusted(); t != dsys.None && t != d.self {
		p.Send(t, KindAlive, nil)
	}
}

// task3Step is the leader's periodic timeout scan (Task 3).
func (d *Detector) task3Step(p dsys.Proc) {
	now := p.Now()
	if !d.isLeader(now) {
		return
	}
	d.mu.Lock()
	for _, q := range p.All() {
		if q == d.self || d.list.Has(q) {
			continue
		}
		ref := max(d.peers[q].lastAlive, d.leaderSince)
		if now-ref > d.peers[q].timeout {
			// Task 3: no I-AM-ALIVE within Δp(q); suspect q. The leader
			// never suspects itself.
			d.list.Add(q)
			d.listMsg = nil
		}
	}
	d.mu.Unlock()
}

// task4Step retracts a suspicion when an I-AM-ALIVE arrives (Task 4).
func (d *Detector) task4Step(p dsys.Proc, m *dsys.Message) {
	d.mu.Lock()
	if d.list.Has(m.From) {
		// Task 4: the suspicion was a mistake; retract it and back
		// off so that q is suspected only a bounded number of times
		// once the system is stable (proof of Theorem 1). A follower whose
		// adopted list names the sender gets here too; its back-off must
		// survive until it leads, so it takes a table now.
		d.ensurePeers()
		d.list.Remove(m.From)
		d.listMsg = nil
		d.falseSusp++
		d.peers[m.From].timeout += d.opt.TimeoutIncrement
	}
	if d.peers != nil {
		d.peers[m.From].lastAlive = p.Now()
	}
	d.mu.Unlock()
}

// task5Step: adopt the suspect list sent by the currently trusted process.
func (d *Detector) task5Step(p dsys.Proc, m *dsys.Message) {
	d.adopt(p, m.From, m.Payload.([]dsys.ProcessID))
}

func (d *Detector) adopt(p dsys.Proc, from dsys.ProcessID, list []dsys.ProcessID) {
	if d.under.Trusted() != from || from == d.self {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// The leader repeats an unchanged list every period; only a list that
	// differs from the one held is worth building a set from.
	if !slices.Equal(list, d.listMsgLocked().([]dsys.ProcessID)) {
		d.list = fd.NewSet(list...)
		d.listMsg = nil
	}
	d.adoptions++
}
