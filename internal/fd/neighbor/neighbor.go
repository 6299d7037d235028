// Package neighbor implements a weak-completeness failure detector — class
// ◇Q of Fig. 1 (weak completeness + eventual strong accuracy) under partial
// synchrony.
//
// Each process monitors only its nearest non-suspected ring predecessor
// (walking back across crashes like package ring's detector) but, unlike the
// ring detector, never shares what it learns: its suspect set contains only
// processes it timed out on itself. A crashed process is therefore
// eventually suspected by its nearest correct successor — some correct
// process (weak completeness) — but generally not by every correct process,
// so strong completeness fails, which is exactly what distinguishes ◇Q from
// ◇P. Adaptive timeouts silence false suspicions after GST (eventual strong
// accuracy); since eventual strong accuracy implies eventual weak accuracy,
// the detector is also in ◇W.
//
// Package amplify upgrades this detector's weak completeness to strong
// completeness with the classic Chandra–Toueg broadcast transformation,
// yielding ◇P; together the two packages realize all four corners of
// Fig. 1 in code.
//
// Cost: one heartbeat per live process per period (n messages), like the
// ring detector, plus WATCH renewals across crash gaps.
package neighbor

import (
	"sync"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
)

// Message kinds.
const (
	// KindBeat is the predecessor heartbeat (no payload).
	KindBeat = "nb.beat"
	// KindWatch asks the destination to direct heartbeats to the sender.
	KindWatch = "nb.watch"
)

// Options configures the detector. Zero fields take defaults (same scheme as
// package ring).
type Options struct {
	Period           time.Duration // default 10ms
	InitialTimeout   time.Duration // default 3·Period
	TimeoutIncrement time.Duration // default 2·Period
	CheckInterval    time.Duration // default Period/2, at least 1ns
	WatchTTL         time.Duration // default 6·Period
	WatchRenew       time.Duration // default WatchTTL/2
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
	if o.WatchTTL <= 0 {
		o.WatchTTL = 6 * o.Period
	}
	if o.WatchRenew <= 0 {
		o.WatchRenew = o.WatchTTL / 2
	}
}

// Detector is a ◇Q module attached to one process.
type Detector struct {
	opt  Options
	self dsys.ProcessID
	n    int

	mu        sync.Mutex
	susp      fd.Set // only processes this module timed out on itself
	pred      dsys.ProcessID
	rewatched bool
	lastHeard map[dsys.ProcessID]time.Duration
	timeout   map[dsys.ProcessID]time.Duration
	watchers  map[dsys.ProcessID]time.Duration
	lastWatch time.Duration
	falseSusp int
}

var _ fd.Suspector = (*Detector)(nil)

// Start attaches a neighbor detector to p's process.
func Start(p dsys.Proc, opt Options) *Detector {
	opt.fill()
	d := &Detector{
		opt:       opt,
		self:      p.ID(),
		n:         p.N(),
		susp:      fd.Set{},
		lastHeard: make(map[dsys.ProcessID]time.Duration, p.N()),
		timeout:   make(map[dsys.ProcessID]time.Duration, p.N()),
		watchers:  make(map[dsys.ProcessID]time.Duration),
	}
	now := p.Now()
	for _, q := range p.All() {
		if q != d.self {
			d.lastHeard[q] = now
			d.timeout[q] = opt.InitialTimeout
		}
	}
	d.pred = d.nearestPred()
	dsys.SpawnTickLoop(p, "nb-beat", dsys.TickLoop{Period: opt.Period, Immediate: true, Fn: d.beatStep})
	dsys.SpawnRecvLoop(p, "nb-recv", d.recvStep, KindBeat, KindWatch)
	dsys.SpawnTickLoop(p, "nb-check", dsys.TickLoop{Period: opt.CheckInterval, Fn: d.checkStep})
	return d
}

// Suspected implements fd.Suspector.
func (d *Detector) Suspected() fd.Set {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.susp.Clone()
}

// FalseSuspicions returns how many suspicions were retracted.
func (d *Detector) FalseSuspicions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.falseSusp
}

func (d *Detector) prev(q dsys.ProcessID) dsys.ProcessID {
	if q == 1 {
		return dsys.ProcessID(d.n)
	}
	return q - 1
}

func (d *Detector) next(q dsys.ProcessID) dsys.ProcessID {
	if int(q) == d.n {
		return 1
	}
	return q + 1
}

func (d *Detector) nearestPred() dsys.ProcessID {
	for q := d.prev(d.self); q != d.self; q = d.prev(q) {
		if !d.susp.Has(q) {
			return q
		}
	}
	return dsys.None
}

func (d *Detector) nearestSucc() dsys.ProcessID {
	// The default heartbeat target is the immediate successor; unlike the
	// ring detector we have no knowledge of remote crashes, so we simply
	// beat the next process and rely on WATCH requests across gaps.
	if d.n == 1 {
		return dsys.None
	}
	return d.next(d.self)
}

func (d *Detector) setPred(p dsys.Proc, q dsys.ProcessID) {
	d.pred = q
	d.rewatched = false
	if q == dsys.None {
		return
	}
	d.lastHeard[q] = p.Now()
	d.lastWatch = p.Now()
	p.Send(q, KindWatch, nil)
}

func (d *Detector) beatStep(p dsys.Proc) {
	d.mu.Lock()
	targets := fd.Set{}
	if s := d.nearestSucc(); s != dsys.None {
		targets.Add(s)
	}
	now := p.Now()
	for w, exp := range d.watchers {
		if exp <= now {
			delete(d.watchers, w)
		} else {
			targets.Add(w)
		}
	}
	d.mu.Unlock()
	for _, q := range targets.Members() {
		p.Send(q, KindBeat, nil)
	}
}

func (d *Detector) recvStep(p dsys.Proc, m *dsys.Message) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch m.Kind {
	case KindWatch:
		d.watchers[m.From] = p.Now() + d.opt.WatchTTL
	case KindBeat:
		d.lastHeard[m.From] = p.Now()
		if d.susp.Has(m.From) {
			d.susp.Remove(m.From)
			d.falseSusp++
			d.timeout[m.From] += d.opt.TimeoutIncrement
			if np := d.nearestPred(); np != d.pred {
				d.setPred(p, np)
			}
		}
	}
}

func (d *Detector) checkStep(p dsys.Proc) {
	now := p.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pred == dsys.None {
		if np := d.nearestPred(); np != dsys.None {
			d.setPred(p, np)
		}
		return
	}
	if now-d.lastHeard[d.pred] > d.timeout[d.pred] {
		if !d.rewatched {
			d.rewatched = true
			d.lastHeard[d.pred] = now
			d.lastWatch = now
			p.Send(d.pred, KindWatch, nil)
		} else {
			d.susp.Add(d.pred)
			d.setPred(p, d.nearestPred())
		}
	} else if d.pred != d.prev(d.self) && now-d.lastWatch >= d.opt.WatchRenew {
		d.lastWatch = now
		p.Send(d.pred, KindWatch, nil)
	}
}
