// Package amplify implements the Chandra–Toueg completeness amplification:
// the asynchronous transformation from weak completeness to strong
// completeness that takes ◇W to ◇S and ◇Q to ◇P (the reductions the paper
// invokes in Section 3 when it builds ◇C "on top of any failure detector in
// classes ◇W or ◇S").
//
// Every process periodically broadcasts the suspect set of its underlying
// (weakly complete) module. On receiving a set S from q, a process updates
// its output to (output ∪ S) \ {q}: anything anyone suspects becomes
// suspected everywhere, while hearing from q is proof enough to clear q.
//
//   - Strong completeness: a crashed process x is eventually permanently
//     suspected by some correct process (weak completeness of the input),
//     whose broadcasts plant x at every correct process; x itself never
//     broadcasts again, so x is never removed.
//   - Accuracy is preserved: once no underlying module suspects a correct
//     process c (eventual weak/strong accuracy of the input), c stops being
//     re-planted, and c's own next broadcast removes it everywhere.
//
// Cost: n(n−1) messages per period — the price the paper attributes to
// these classic reductions, and the reason it prefers detectors that provide
// the leader directly.
package amplify

import (
	"sync"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
)

// KindSets is the kind of the periodic suspect-set broadcasts; the payload
// is a []dsys.ProcessID snapshot.
const KindSets = "amp.sets"

// Options configures the transformation.
type Options struct {
	// Period between broadcasts. Default 10ms.
	Period time.Duration
}

func (o *Options) fill() {
	if o.Period <= 0 {
		o.Period = 10 * time.Millisecond
	}
}

// Detector is the strongly complete output module at one process.
type Detector struct {
	opt   Options
	self  dsys.ProcessID
	under fd.Suspector

	mu  sync.Mutex
	out fd.Set
}

var _ fd.Suspector = (*Detector)(nil)

// Start attaches the amplification to p's process, reading the weakly
// complete input from under.
func Start(p dsys.Proc, under fd.Suspector, opt Options) *Detector {
	opt.fill()
	d := &Detector{opt: opt, self: p.ID(), under: under, out: fd.Set{}}
	dsys.SpawnTickLoop(p, "amp-bcast", dsys.TickLoop{Period: opt.Period, Immediate: true, Fn: d.bcastStep})
	dsys.SpawnRecvLoop(p, "amp-recv", d.recvStep, KindSets)
	return d
}

// Suspected implements fd.Suspector.
func (d *Detector) Suspected() fd.Set {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.Clone()
}

func (d *Detector) bcastStep(p dsys.Proc) {
	list := d.under.Suspected().Members()
	// Local suspicions feed the local output too (the process trusts its
	// own module without waiting for its broadcast to loop back).
	d.mu.Lock()
	for _, q := range list {
		if q != d.self {
			d.out.Add(q)
		}
	}
	d.mu.Unlock()
	for _, q := range p.All() {
		if q != d.self {
			p.Send(q, KindSets, list)
		}
	}
}

func (d *Detector) recvStep(p dsys.Proc, m *dsys.Message) {
	d.mu.Lock()
	for _, q := range m.Payload.([]dsys.ProcessID) {
		if q != d.self {
			d.out.Add(q)
		}
	}
	d.out.Remove(m.From)
	d.mu.Unlock()
}
