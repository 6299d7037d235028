// Package ring implements a ring-based eventually consistent failure
// detector in the style of the ◇S algorithm of Larrea, Arévalo and Fernández
// (DISC'99), which the paper singles out in Section 3 as a detector that
// yields ◇C at no additional message cost.
//
// Processes are arranged on the logical ring p1 → p2 → ... → pn → p1. Each
// process periodically sends a heartbeat carrying its current suspect list
// to its nearest non-suspected successor, and monitors its nearest
// non-suspected predecessor with an adaptive timeout. When the predecessor
// times out it is suspected and monitoring moves one step further back; a
// WATCH request tells the new predecessor to direct heartbeats here while
// the ring is locally re-stitched. Suspect lists ride the heartbeats hop by
// hop around the ring, so everyone eventually learns of every crash (strong
// completeness), while adaptive timeouts make false suspicions die out after
// GST (here even eventual strong accuracy; the paper only needs the ◇S
// subset of that).
//
// The leader is the first process in ring order, starting from the initial
// candidate p1, that is not suspected. Because the suspect lists of correct
// processes converge, all correct processes eventually and permanently agree
// on the same correct leader — exactly the property the paper exploits:
// Trusted() costs no extra messages on top of the ◇S machinery.
//
// Steady-state cost: n heartbeats per period (one per live process), plus a
// WATCH renewal per crash gap. Crash-detection information travels the ring
// one hop per period, which is the propagation latency the paper's
// transformation is designed to beat (experiment E4).
package ring

import (
	"slices"
	"sync"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
)

// Message kinds.
const (
	// KindBeat is the ring heartbeat; its payload is a []dsys.ProcessID
	// snapshot of the sender's suspect list.
	KindBeat = "ring.beat"
	// KindWatch asks the destination to direct ring heartbeats to the
	// sender for fd.WatchTTL.
	KindWatch = "ring.watch"
)

// Options configures the detector. A zero Period takes the default; the
// timeouts follow from it by package fd's timing policy.
type Options struct {
	// Period η between heartbeats. Default 10ms.
	Period time.Duration
}

func (o *Options) fill() {
	if o.Period <= 0 {
		o.Period = 10 * time.Millisecond
	}
}

// Detector is a ring ◇C module attached to one process.
//
// A process monitors one predecessor at a time, and its state is sized to
// that: the last-heard time of the current predecessor (setPred restarts it
// whenever monitoring moves, so no other process's ever matters), and a
// timeout only for the processes a retracted suspicion has backed off
// (fd.Timeouts).
type Detector struct {
	opt  Options
	self dsys.ProcessID
	n    int

	mu   sync.Mutex
	susp fd.Set
	// beat is susp as the payload that rides the heartbeats, an immutable
	// []dsys.ProcessID: built and boxed once per change of susp, then shared
	// by every beat until the next change. nil when stale.
	beat      any
	pred      dsys.ProcessID // nearest non-suspected predecessor; None if alone
	rewatched bool           // a retry WATCH was sent for the current pred deadline
	predHeard time.Duration  // last beat from pred, or when monitoring moved to it
	timeouts  fd.Timeouts
	watchers  map[dsys.ProcessID]time.Duration // watcher -> expiry
	lastWatch time.Duration                    // last renewal WATCH to pred
	falseSusp int
	// targets and adopted are scratch buffers of the beat and receive tasks,
	// kept so a steady-state step allocates nothing.
	targets, adopted []dsys.ProcessID

	// Leadership deferral (fd.LeadershipDeferrer): ready is this process's
	// own readiness predicate; deferUntil holds peers whose beats carried a
	// self-mark, each with an expiry so a mark cannot outlive its sender's
	// beats (the mark travels one hop only — exactly far enough, since the
	// deferrer's successor is the process that must claim leadership, and
	// consensus coordinators are adopted from their announcements by
	// everyone else).
	ready      func() bool
	deferUntil map[dsys.ProcessID]time.Duration
}

var (
	_ fd.EventuallyConsistent = (*Detector)(nil)
	_ fd.LeadershipDeferrer   = (*Detector)(nil)
)

// Start attaches a ring detector to p's process and spawns its tasks.
func Start(p dsys.Proc, opt Options) *Detector {
	opt.fill()
	d := &Detector{
		opt:        opt,
		self:       p.ID(),
		n:          p.N(),
		timeouts:   fd.NewTimeouts(opt.Period),
		watchers:   make(map[dsys.ProcessID]time.Duration),
		deferUntil: make(map[dsys.ProcessID]time.Duration),
	}
	d.pred = d.nearestPred()
	d.predHeard = p.Now()
	// Declared as loop tasks so the simulator can run them goroutine-free;
	// spawn order, task shape (body-then-sleep vs sleep-then-body) and
	// receive kinds exactly mirror the blocking originals.
	dsys.SpawnTickLoop(p, "ring-beat", dsys.TickLoop{Period: opt.Period, Immediate: true, Fn: d.beatStep})
	dsys.SpawnRecvLoop(p, "ring-recv", d.recvStep, KindBeat, KindWatch)
	dsys.SpawnTickLoop(p, "ring-check", dsys.TickLoop{Period: fd.CheckInterval(opt.Period), Fn: d.checkStep})
	return d
}

// Suspected implements fd.Suspector.
func (d *Detector) Suspected() fd.Set {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.susp.Clone()
}

// Trusted implements fd.LeaderOracle: the first non-suspected process in
// ring order starting from the initial candidate p1, passing over processes
// that currently defer leadership (see SetReadiness). If every non-suspected
// process defers, the plain ◇C choice applies — deferral may cost a little
// time, never the Ω property.
func (d *Detector) Trusted() dsys.ProcessID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ready == nil && len(d.deferUntil) == 0 {
		return fd.FirstNonSuspected(d.susp, d.n)
	}
	for i := 1; i <= d.n; i++ {
		q := dsys.ProcessID(i)
		if !d.susp.Has(q) && !d.defers(q) {
			return q
		}
	}
	return fd.FirstNonSuspected(d.susp, d.n)
}

// SetReadiness implements fd.LeadershipDeferrer: while fn returns false this
// process marks itself as deferring in its ring heartbeats and skips itself
// in Trusted().
func (d *Detector) SetReadiness(fn func() bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ready = fn
}

// defers reports whether q currently declines leadership. Callers hold d.mu.
func (d *Detector) defers(q dsys.ProcessID) bool {
	if q == d.self {
		return d.ready != nil && !d.ready()
	}
	_, ok := d.deferUntil[q]
	return ok
}

// FalseSuspicions returns how many suspicions were later retracted.
func (d *Detector) FalseSuspicions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.falseSusp
}

// prev returns the ring predecessor of q.
func (d *Detector) prev(q dsys.ProcessID) dsys.ProcessID {
	if q == 1 {
		return dsys.ProcessID(d.n)
	}
	return q - 1
}

// next returns the ring successor of q.
func (d *Detector) next(q dsys.ProcessID) dsys.ProcessID {
	if int(q) == d.n {
		return 1
	}
	return q + 1
}

// nearestPred returns the closest predecessor of self not in susp, or None
// if every other process is suspected. Callers hold d.mu.
func (d *Detector) nearestPred() dsys.ProcessID {
	for q := d.prev(d.self); q != d.self; q = d.prev(q) {
		if !d.susp.Has(q) {
			return q
		}
	}
	return dsys.None
}

// nearestSucc is the symmetric successor computation. Callers hold d.mu.
func (d *Detector) nearestSucc() dsys.ProcessID {
	for q := d.next(d.self); q != d.self; q = d.next(q) {
		if !d.susp.Has(q) {
			return q
		}
	}
	return dsys.None
}

// setPred switches monitoring to q, granting it a fresh grace period, and
// requests its heartbeats. Callers hold d.mu.
func (d *Detector) setPred(p dsys.Proc, q dsys.ProcessID) {
	d.pred = q
	d.rewatched = false
	if q == dsys.None {
		return
	}
	d.predHeard = p.Now()
	d.lastWatch = p.Now()
	p.Send(q, KindWatch, nil)
}

// beatLocked returns the current suspect list as a message payload, a
// []dsys.ProcessID the receivers share and nobody modifies. Callers hold
// d.mu.
func (d *Detector) beatLocked() any {
	if d.beat == nil {
		d.beat = d.susp.Members()
	}
	return d.beat
}

// beatStep is one heartbeat period: send the suspect list to the nearest
// non-suspected successor and every live watcher.
func (d *Detector) beatStep(p dsys.Proc) {
	d.mu.Lock()
	succ := d.nearestSucc()
	targets := d.targets[:0]
	if succ != dsys.None {
		targets = append(targets, succ)
	}
	now := p.Now()
	for w, exp := range d.watchers {
		if exp <= now {
			delete(d.watchers, w)
		} else if w != succ {
			targets = append(targets, w)
		}
	}
	slices.Sort(targets) // beats go out in process order
	d.targets = targets
	list := d.beatLocked()
	ready := d.ready
	d.mu.Unlock()
	if ready != nil && !ready() {
		// Mark leadership deferral by listing ourselves in our own beat
		// — no recipient ever suspects the process it just heard from,
		// so the self-entry is unambiguous and costs no extra message.
		// The shared list is immutable, so the mark goes on a copy.
		list = append(slices.Clip(list.([]dsys.ProcessID)), d.self)
	}
	// Only this task touches targets between here and its next step.
	for _, q := range targets {
		p.Send(q, KindBeat, list)
	}
}

// recvStep handles one BEAT or WATCH message.
func (d *Detector) recvStep(p dsys.Proc, m *dsys.Message) {
	d.mu.Lock()
	switch m.Kind {
	case KindWatch:
		d.watchers[m.From] = p.Now() + fd.WatchTTL(d.opt.Period)
	case KindBeat:
		if m.From == d.pred {
			d.predHeard = p.Now()
		}
		beat, _ := m.Payload.([]dsys.ProcessID)
		selfMarked := false
		for _, q := range beat {
			if q == m.From {
				selfMarked = true
				break
			}
		}
		if selfMarked {
			// The sender defers leadership (e.g. it is replaying its log
			// after a restart). The mark expires on its own so a stale
			// entry cannot outlive the sender's beats if the ring is
			// re-stitched away from us.
			d.deferUntil[m.From] = p.Now() + fd.InitialTimeout(d.opt.Period)
		} else {
			delete(d.deferUntil, m.From)
		}
		if d.susp.Has(m.From) {
			// A falsely suspected process resurfaced: retract, back off
			// its timeout, and re-evaluate whom to monitor.
			d.susp.Remove(m.From)
			d.beat = nil
			d.falseSusp++
			d.timeouts.Increase(m.From)
			if np := d.nearestPred(); np != d.pred {
				d.setPred(p, np)
			}
		}
		if m.From == d.pred {
			// Adopt the predecessor's list as the upstream truth, but
			// keep our direct knowledge of the ring segment between the
			// predecessor and us: those are exactly the processes we
			// timed out on ourselves, and a predecessor that has not yet
			// learned of their crashes (the information must travel the
			// whole ring) must not be able to erase them.
			adopted := d.adopted[:0]
			for _, q := range beat {
				// q == d.pred also filters the sender's own deferral
				// mark, which is a leadership hint, not a suspicion.
				if q != d.self && q != d.pred {
					adopted = append(adopted, q)
				}
			}
			for q := d.next(d.pred); q != d.self; q = d.next(q) {
				adopted = append(adopted, q)
			}
			slices.Sort(adopted)
			adopted = slices.Compact(adopted)
			d.adopted = adopted
			// Almost every beat repeats the list already held; only one
			// that differs is worth building a set from.
			if !slices.Equal(adopted, d.beatLocked().([]dsys.ProcessID)) {
				d.susp = fd.NewSet(adopted...)
				d.beat = nil
			}
			d.rewatched = false
		}
	}
	d.mu.Unlock()
}

// checkStep is one expiry evaluation of the monitored predecessor.
func (d *Detector) checkStep(p dsys.Proc) {
	now := p.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for q, exp := range d.deferUntil {
		if exp <= now {
			delete(d.deferUntil, q)
		}
	}
	if d.pred == dsys.None {
		if np := d.nearestPred(); np != dsys.None {
			d.setPred(p, np)
		}
		return
	}
	if now-d.predHeard > d.timeouts.Of(d.pred) {
		if !d.rewatched {
			// The predecessor may simply not know we are listening
			// (e.g. it still heartbeats a process we already gave up
			// on). Ask once more before suspecting it.
			d.rewatched = true
			d.predHeard = now
			d.lastWatch = now
			p.Send(d.pred, KindWatch, nil)
		} else {
			d.susp.Add(d.pred)
			d.beat = nil
			d.setPred(p, d.nearestPred())
		}
	} else if d.pred != d.prev(d.self) && now-d.lastWatch >= fd.WatchRenew(d.opt.Period) {
		// Keep a non-adjacent predecessor's watcher entry alive across
		// crash gaps.
		d.lastWatch = now
		p.Send(d.pred, KindWatch, nil)
	}
}
