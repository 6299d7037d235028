// Package omega provides implementations of the Ω failure detector class of
// Chandra, Hadzilacos and Toueg: when queried, the module returns a single
// trusted process, and there is a time after which every correct process
// permanently trusts the same correct process (Property 1 of the paper).
//
// Two implementations are provided:
//
//   - LeaderBeat: candidates are tried in the order p1, p2, ...; only the
//     process that currently believes itself leader broadcasts heartbeats,
//     for a steady-state cost of n−1 messages per period. This is the style
//     of the "optimal" algorithm of Larrea, Fernández and Arévalo (SRDS
//     2000) that the paper suggests as the basis for ◇C and for the
//     piggybacked transformation of Section 4. It also implements
//     fd.Beacon, which is what makes the piggybacking possible.
//
//   - FromSuspector: the asynchronous reduction from a ◇S (or ◇W after the
//     Chandra–Toueg completeness amplification) suspector to Ω in the
//     spirit of Chandra et al. and Chu: processes gossip per-process
//     suspicion counters and trust the process with the smallest
//     (counter, id). As the paper notes in Section 3, this route is
//     expensive — every process periodically sends to every other (n²
//     messages per period).
package omega

import (
	"sync"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
)

// Message kinds.
const (
	// KindLeaderBeat is the leader's periodic broadcast. Its payload is a
	// *BeatPayload.
	KindLeaderBeat = "omega.leaderbeat"
	// KindCounters carries a suspicion-counter vector ([]uint64) in the
	// FromSuspector reduction.
	KindCounters = "omega.counters"
)

// BeatPayload is the payload of a leader heartbeat.
type BeatPayload struct {
	// Attachment is the piggybacked payload registered through
	// fd.Beacon.SetBeaconPayload, if any.
	Attachment any
}

// Options configures either implementation. Zero fields take defaults.
type Options struct {
	// Period between broadcasts. Default 10ms.
	Period time.Duration
	// InitialTimeout is the starting leader timeout (LeaderBeat only).
	// Default 3·Period.
	InitialTimeout time.Duration
	// TimeoutIncrement is added on each retracted suspicion (LeaderBeat
	// only). Default 2·Period.
	TimeoutIncrement time.Duration
	// CheckInterval is how often expiries are evaluated (LeaderBeat only).
	// Default Period/2, at least 1ns.
	CheckInterval time.Duration
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

// LeaderBeat is the n−1 messages-per-period Ω module.
//
// Every process ranks candidates p1 < p2 < ... < pn and trusts the first
// candidate it does not currently suspect; only the leader candidate is
// monitored, and suspicion of a candidate is retracted (with a timeout
// increase) when a heartbeat from it arrives. A process that trusts itself
// broadcasts heartbeats every Period. After GST and once timeouts have grown
// past the heartbeat round trip, exactly the smallest-id correct process is
// trusted by every correct process, permanently.
type LeaderBeat struct {
	opt  Options
	self dsys.ProcessID
	n    int

	mu        sync.Mutex
	susp      fd.Set // suspected leader candidates (always a prefix-ish set)
	lastHeard map[dsys.ProcessID]time.Duration
	timeout   map[dsys.ProcessID]time.Duration
	changes   int
	last      dsys.ProcessID

	payloadFn func() any
	onBeacon  []func(from dsys.ProcessID, payload any)
}

var (
	_ fd.LeaderOracle = (*LeaderBeat)(nil)
	_ fd.Beacon       = (*LeaderBeat)(nil)
)

// StartLeaderBeat attaches a LeaderBeat Ω module to p's process.
func StartLeaderBeat(p dsys.Proc, opt Options) *LeaderBeat {
	opt.fill()
	d := &LeaderBeat{
		opt:       opt,
		self:      p.ID(),
		n:         p.N(),
		susp:      fd.Set{},
		lastHeard: make(map[dsys.ProcessID]time.Duration, p.N()),
		timeout:   make(map[dsys.ProcessID]time.Duration, p.N()),
	}
	now := p.Now()
	for _, q := range p.All() {
		if q != d.self {
			d.lastHeard[q] = now
			d.timeout[q] = opt.InitialTimeout
		}
	}
	d.last = d.trustedLocked()
	dsys.SpawnTickLoop(p, "omega-beat", dsys.TickLoop{Period: opt.Period, Immediate: true, Fn: d.beatStep})
	dsys.SpawnRecvLoop(p, "omega-recv", d.recvStep, KindLeaderBeat)
	dsys.SpawnTickLoop(p, "omega-check", dsys.TickLoop{Period: opt.CheckInterval, Fn: d.checkStep})
	return d
}

// Trusted implements fd.LeaderOracle.
func (d *LeaderBeat) Trusted() dsys.ProcessID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trustedLocked()
}

func (d *LeaderBeat) trustedLocked() dsys.ProcessID {
	return fd.FirstNonSuspected(d.susp, d.n)
}

// LeaderChanges counts how often this module's trusted process changed — a
// stability measure used by experiment E11.
func (d *LeaderBeat) LeaderChanges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.changes
}

// SetBeaconPayload implements fd.Beacon.
func (d *LeaderBeat) SetBeaconPayload(fn func() any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.payloadFn != nil {
		panic("omega: beacon payload already registered")
	}
	d.payloadFn = fn
}

// OnBeacon implements fd.Beacon.
func (d *LeaderBeat) OnBeacon(fn func(from dsys.ProcessID, payload any)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onBeacon = append(d.onBeacon, fn)
}

func (d *LeaderBeat) noteChangeLocked() {
	if t := d.trustedLocked(); t != d.last {
		d.last = t
		d.changes++
	}
}

func (d *LeaderBeat) beatStep(p dsys.Proc) {
	d.mu.Lock()
	isLeader := d.trustedLocked() == d.self
	var attachment any
	if isLeader && d.payloadFn != nil {
		attachment = d.payloadFn()
	}
	d.mu.Unlock()
	if isLeader {
		pay := &BeatPayload{Attachment: attachment}
		for _, q := range p.All() {
			if q != d.self {
				p.Send(q, KindLeaderBeat, pay)
			}
		}
	}
}

func (d *LeaderBeat) recvStep(p dsys.Proc, m *dsys.Message) {
	pay := m.Payload.(*BeatPayload)
	d.mu.Lock()
	d.lastHeard[m.From] = p.Now()
	if d.susp.Has(m.From) {
		d.susp.Remove(m.From)
		d.timeout[m.From] += d.opt.TimeoutIncrement
		d.noteChangeLocked()
	}
	handlers := d.onBeacon
	d.mu.Unlock()
	for _, fn := range handlers {
		fn(m.From, pay.Attachment)
	}
}

func (d *LeaderBeat) checkStep(p dsys.Proc) {
	now := p.Now()
	d.mu.Lock()
	ldr := d.trustedLocked()
	if ldr != dsys.None && ldr != d.self && now-d.lastHeard[ldr] > d.timeout[ldr] {
		d.susp.Add(ldr)
		// Grant the next candidate a fresh grace period: it does not
		// broadcast until it learns it is leader, which takes time.
		if nxt := d.trustedLocked(); nxt != dsys.None && nxt != d.self {
			d.lastHeard[nxt] = now
		}
		d.noteChangeLocked()
	}
	d.mu.Unlock()
}

// FromSuspector is the gossip-based reduction Suspector → Ω.
//
// Every Period each process increments a local counter for every process its
// suspector currently suspects and broadcasts its counter vector; received
// vectors are merged component-wise by maximum. The trusted process is the
// one with the smallest (counter, id). Crashed processes are eventually
// permanently suspected (◇S strong completeness), so their counters grow
// without bound everywhere, while the eventually-never-suspected correct
// process (◇S eventual weak accuracy) has a counter that converges; gossip
// makes all correct processes agree on converged components, so eventually
// everyone permanently trusts the same correct process.
type FromSuspector struct {
	opt   Options
	self  dsys.ProcessID
	n     int
	under fd.Suspector

	mu       sync.Mutex
	counters []uint64 // index 0 is p1
	changes  int
	last     dsys.ProcessID
}

var _ fd.LeaderOracle = (*FromSuspector)(nil)

// StartFromSuspector attaches the reduction to p's process, reading
// suspicions from under.
func StartFromSuspector(p dsys.Proc, under fd.Suspector, opt Options) *FromSuspector {
	opt.fill()
	d := &FromSuspector{
		opt:      opt,
		self:     p.ID(),
		n:        p.N(),
		under:    under,
		counters: make([]uint64, p.N()),
	}
	d.last = d.trustedLocked()
	dsys.SpawnTickLoop(p, "omegafs-gossip", dsys.TickLoop{Period: opt.Period, Immediate: true, Fn: d.gossipStep})
	dsys.SpawnRecvLoop(p, "omegafs-recv", d.recvStep, KindCounters)
	return d
}

// Trusted implements fd.LeaderOracle.
func (d *FromSuspector) Trusted() dsys.ProcessID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trustedLocked()
}

func (d *FromSuspector) trustedLocked() dsys.ProcessID {
	best := 0
	for i := 1; i < d.n; i++ {
		if d.counters[i] < d.counters[best] {
			best = i
		}
	}
	return dsys.ProcessID(best + 1)
}

// LeaderChanges counts trusted-process changes at this module.
func (d *FromSuspector) LeaderChanges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.changes
}

func (d *FromSuspector) gossipStep(p dsys.Proc) {
	susp := d.under.Suspected()
	d.mu.Lock()
	for _, q := range susp.Members() {
		d.counters[int(q)-1]++
	}
	snapshot := make([]uint64, d.n)
	copy(snapshot, d.counters)
	if t := d.trustedLocked(); t != d.last {
		d.last = t
		d.changes++
	}
	d.mu.Unlock()
	for _, q := range p.All() {
		if q != d.self {
			p.Send(q, KindCounters, snapshot)
		}
	}
}

func (d *FromSuspector) recvStep(p dsys.Proc, m *dsys.Message) {
	v := m.Payload.([]uint64)
	d.mu.Lock()
	for i := range d.counters {
		if v[i] > d.counters[i] {
			d.counters[i] = v[i]
		}
	}
	if t := d.trustedLocked(); t != d.last {
		d.last = t
		d.changes++
	}
	d.mu.Unlock()
}
