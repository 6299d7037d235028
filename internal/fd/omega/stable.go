package omega

import (
	"sync"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
)

// KindStableBeat is the stable leader's periodic broadcast; its payload is a
// []uint32 epoch (accusation-count) vector.
const KindStableBeat = "omega.stablebeat"

// Stable is a *stable* Ω module in the spirit of Aguilera, Delporte-Gallet,
// Fauconnier and Toueg (DISC 2001), which the paper's related work singles
// out: once a leader is elected it remains leader for as long as it does not
// crash and its links behave well — in particular, leadership never reverts
// to a lower-ranked process just because a past false suspicion of it was
// retracted.
//
// Candidates are ranked by (epoch, id), where epoch[q] counts the
// accusations against q. Every process monitors only the process its own
// vector ranks first; a timeout bumps that candidate's epoch locally and
// moves on. A process that ranks itself first broadcasts heartbeats carrying
// its full epoch vector; receivers merge vectors component-wise by maximum,
// which is how accusations (and hence demotions) spread. Because epochs only
// grow, a demoted leader stays demoted: retracting is impossible by
// construction, giving stability. After GST, adaptive timeouts stop new
// accusations, the vectors converge, and exactly one correct process —
// the minimum under (epoch, id) — leads forever.
//
// Steady-state cost: n−1 messages per period, like LeaderBeat.
type Stable struct {
	self dsys.ProcessID
	n    int

	mu        sync.Mutex
	epoch     []uint32 // index 0 = p1
	lastHeard map[dsys.ProcessID]time.Duration
	timeouts  fd.Timeouts
	changes   int
	last      dsys.ProcessID
}

var _ fd.LeaderOracle = (*Stable)(nil)

// StartStable attaches a stable Ω module to p's process.
func StartStable(p dsys.Proc, opt Options) *Stable {
	opt.fill()
	d := &Stable{
		self:      p.ID(),
		n:         p.N(),
		epoch:     make([]uint32, p.N()),
		lastHeard: make(map[dsys.ProcessID]time.Duration, p.N()),
		timeouts:  fd.NewTimeouts(opt.Period),
	}
	now := p.Now()
	for _, q := range p.All() {
		if q != d.self {
			d.lastHeard[q] = now
		}
	}
	d.last = d.leaderLocked()
	dsys.SpawnTickLoop(p, "omegastable-beat", dsys.TickLoop{Period: opt.Period, Immediate: true, Fn: d.beatStep})
	dsys.SpawnRecvLoop(p, "omegastable-recv", d.recvStep, KindStableBeat)
	dsys.SpawnTickLoop(p, "omegastable-check", dsys.TickLoop{Period: fd.CheckInterval(opt.Period), Fn: d.checkStep})
	return d
}

// Trusted implements fd.LeaderOracle.
func (d *Stable) Trusted() dsys.ProcessID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.leaderLocked()
}

// LeaderChanges counts trusted-process changes at this module — the
// stability measure compared against plain LeaderBeat.
func (d *Stable) LeaderChanges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.changes
}

// leaderLocked returns the minimum candidate under (epoch, id).
func (d *Stable) leaderLocked() dsys.ProcessID {
	best := 0
	for i := 1; i < d.n; i++ {
		if d.epoch[i] < d.epoch[best] {
			best = i
		}
	}
	return dsys.ProcessID(best + 1)
}

func (d *Stable) noteChangeLocked(p dsys.Proc) {
	l := d.leaderLocked()
	if l == d.last {
		return
	}
	d.last = l
	d.changes++
	// Grace period for the new leader: it starts beating only once it
	// learns (by vector convergence) that it leads.
	if l != d.self {
		d.lastHeard[l] = p.Now()
	}
}

func (d *Stable) beatStep(p dsys.Proc) {
	d.mu.Lock()
	isLeader := d.leaderLocked() == d.self
	var vec []uint32
	if isLeader {
		vec = make([]uint32, d.n)
		copy(vec, d.epoch)
	}
	d.mu.Unlock()
	if isLeader {
		for _, q := range p.All() {
			if q != d.self {
				p.Send(q, KindStableBeat, vec)
			}
		}
	}
}

func (d *Stable) recvStep(p dsys.Proc, m *dsys.Message) {
	vec := m.Payload.([]uint32)
	d.mu.Lock()
	d.lastHeard[m.From] = p.Now()
	for i := range d.epoch {
		if vec[i] > d.epoch[i] {
			d.epoch[i] = vec[i]
		}
	}
	d.noteChangeLocked(p)
	d.mu.Unlock()
}

func (d *Stable) checkStep(p dsys.Proc) {
	now := p.Now()
	d.mu.Lock()
	ldr := d.leaderLocked()
	if ldr != d.self && now-d.lastHeard[ldr] > d.timeouts.Of(ldr) {
		// Accuse the silent leader: its epoch grows (locally first;
		// globally once our vector spreads) and it is permanently
		// outranked by the accusation — no flapping back.
		d.epoch[int(ldr)-1]++
		d.timeouts.Increase(ldr)
		d.noteChangeLocked(p)
	}
	d.mu.Unlock()
}
