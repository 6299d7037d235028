// Package check verifies the paper's failure-detector and consensus
// properties over recorded traces.
//
// Completeness and accuracy are "eventually, permanently" properties; over a
// finite trace they are verified by locating, for each property, the last
// sample that violates it. The property holds in the run if a violation-free
// suffix exists, and the reported From time is the start of that suffix —
// the measured stabilization time used by experiments E1 and E2. Callers
// asserting a property should also require From to precede the end of the
// run by a comfortable margin, so "holds" is not an artifact of the final
// sample alone.
package check

import (
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/sim"
)

// FDProbe reads a detector module's current output. Either function may be
// nil if the module does not implement that query.
type FDProbe struct {
	Suspected func() fd.Set
	Trusted   func() dsys.ProcessID
}

// ProbeOf builds an FDProbe from any detector, picking up whichever of the
// two query interfaces it implements.
func ProbeOf(d any) FDProbe {
	var p FDProbe
	if s, ok := d.(fd.Suspector); ok {
		p.Suspected = s.Suspected
	}
	if l, ok := d.(fd.LeaderOracle); ok {
		p.Trusted = l.Trusted
	}
	return p
}

// FDSample is one observation of one module's output.
type FDSample struct {
	At        time.Duration
	Suspected fd.Set
	Trusted   dsys.ProcessID
}

// FDRecorder samples the detector modules of all processes on a fixed
// schedule. Crashed processes stop being sampled (their modules are gone).
type FDRecorder struct {
	n       int
	probes  map[dsys.ProcessID]FDProbe
	samples map[dsys.ProcessID][]FDSample
}

// NewFDRecorder creates a recorder for n processes.
func NewFDRecorder(n int) *FDRecorder {
	return &FDRecorder{
		n:       n,
		probes:  make(map[dsys.ProcessID]FDProbe, n),
		samples: make(map[dsys.ProcessID][]FDSample, n),
	}
}

// SetProbe registers the probe for process id (typically from the process's
// setup task, once its detector module exists).
func (r *FDRecorder) SetProbe(id dsys.ProcessID, p FDProbe) { r.probes[id] = p }

// Attach schedules sampling on k at start, start+every, ...
func (r *FDRecorder) Attach(k *sim.Kernel, start, every time.Duration) {
	k.Every(start, every, func(now time.Duration) { r.Sample(now, k.Crashed) })
}

// Sample records one sample at time now of every probed process that has
// not crashed.
func (r *FDRecorder) Sample(now time.Duration, crashed func(dsys.ProcessID) bool) {
	for _, id := range dsys.Pids(r.n) {
		if crashed(id) {
			continue
		}
		p, ok := r.probes[id]
		if !ok {
			continue
		}
		s := FDSample{At: now, Trusted: dsys.None}
		if p.Suspected != nil {
			s.Suspected = p.Suspected()
		}
		if p.Trusted != nil {
			s.Trusted = p.Trusted()
		}
		r.samples[id] = append(r.samples[id], s)
	}
}

// Samples returns the recorded samples of process id.
func (r *FDRecorder) Samples(id dsys.ProcessID) []FDSample { return r.samples[id] }

// AddSample appends a sample directly (used by synthetic tests and by the
// live runtime, which samples on its own schedule).
func (r *FDRecorder) AddSample(id dsys.ProcessID, s FDSample) {
	r.samples[id] = append(r.samples[id], s)
}

// Verdict is the outcome of checking one eventual property over a trace.
type Verdict struct {
	// Holds reports whether a violation-free suffix exists.
	Holds bool
	// From is the time of the first sample of the violation-free suffix
	// (zero if the property was never violated).
	From time.Duration
	// Witness names the process realizing an existential property (the
	// never-suspected process for eventual weak accuracy, the agreed leader
	// for the Ω property); dsys.None otherwise.
	Witness dsys.ProcessID
}

// FDTrace bundles a recorded run for property evaluation.
type FDTrace struct {
	N       int
	Rec     *FDRecorder
	Crashed map[dsys.ProcessID]time.Duration
}

// CorrectIDs returns the processes that never crashed.
func (t FDTrace) CorrectIDs() []dsys.ProcessID {
	var out []dsys.ProcessID
	for _, id := range dsys.Pids(t.N) {
		if _, ok := t.Crashed[id]; !ok {
			out = append(out, id)
		}
	}
	return out
}

// CrashedIDs returns the processes that crashed.
func (t FDTrace) CrashedIDs() []dsys.ProcessID {
	var out []dsys.ProcessID
	for _, id := range dsys.Pids(t.N) {
		if _, ok := t.Crashed[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// suffixFrom returns the Verdict for a per-sample predicate evaluated over
// the samples of the given processes: the suffix start is just after the
// last violating sample across all of them.
func (t FDTrace) suffixFrom(ids []dsys.ProcessID, bad func(id dsys.ProcessID, s FDSample) bool) Verdict {
	var from time.Duration
	holds := true
	for _, id := range ids {
		ss := t.Rec.Samples(id)
		if len(ss) == 0 {
			return Verdict{Holds: false}
		}
		lastBad := -1
		for i, s := range ss {
			if bad(id, s) {
				lastBad = i
			}
		}
		if lastBad == len(ss)-1 {
			holds = false
		}
		if lastBad >= 0 && lastBad+1 < len(ss) {
			if ss[lastBad+1].At > from {
				from = ss[lastBad+1].At
			}
		}
	}
	return Verdict{Holds: holds, From: from}
}

// StrongCompleteness: eventually every crashed process is permanently
// suspected by every correct process.
func (t FDTrace) StrongCompleteness() Verdict {
	crashed := t.CrashedIDs()
	return t.suffixFrom(t.CorrectIDs(), func(_ dsys.ProcessID, s FDSample) bool {
		for _, q := range crashed {
			if t.Crashed[q] <= s.At && !s.Suspected.Has(q) {
				return true
			}
		}
		return false
	})
}

// WeakCompleteness: eventually every crashed process is permanently
// suspected by some correct process.
func (t FDTrace) WeakCompleteness() Verdict {
	correct := t.CorrectIDs()
	best := Verdict{Holds: true}
	for _, q := range t.CrashedIDs() {
		// For this crashed q, find the correct process with the earliest
		// violation-free suffix mentioning q.
		per := Verdict{Holds: false}
		for _, p := range correct {
			v := t.suffixFrom([]dsys.ProcessID{p}, func(_ dsys.ProcessID, s FDSample) bool {
				return t.Crashed[q] <= s.At && !s.Suspected.Has(q)
			})
			if v.Holds && (!per.Holds || v.From < per.From) {
				per = v
			}
		}
		if !per.Holds {
			return Verdict{Holds: false}
		}
		if per.From > best.From {
			best.From = per.From
		}
	}
	return best
}

// EventualStrongAccuracy: there is a time after which correct processes are
// not suspected by any correct process.
func (t FDTrace) EventualStrongAccuracy() Verdict {
	correct := t.CorrectIDs()
	return t.suffixFrom(correct, func(_ dsys.ProcessID, s FDSample) bool {
		if s.Suspected.Len() == 0 {
			return false
		}
		for _, q := range correct {
			if s.Suspected.Has(q) {
				return true
			}
		}
		return false
	})
}

// EventualWeakAccuracy: there is a time after which some correct process is
// never suspected by any correct process. Witness is that process.
func (t FDTrace) EventualWeakAccuracy() Verdict {
	correct := t.CorrectIDs()
	best := Verdict{Holds: false}
	for _, cand := range correct {
		v := t.suffixFrom(correct, func(_ dsys.ProcessID, s FDSample) bool {
			return s.Suspected.Has(cand)
		})
		if v.Holds && (!best.Holds || v.From < best.From) {
			best = v
			best.Witness = cand
		}
	}
	return best
}

// OmegaProperty: there is a time after which every correct process
// permanently trusts the same correct process. Witness is the agreed leader.
func (t FDTrace) OmegaProperty() Verdict {
	correct := t.CorrectIDs()
	best := Verdict{Holds: false}
	for _, cand := range correct {
		v := t.suffixFrom(correct, func(_ dsys.ProcessID, s FDSample) bool {
			return s.Trusted != cand
		})
		if v.Holds && (!best.Holds || v.From < best.From) {
			best = v
			best.Witness = cand
		}
	}
	return best
}

// ECConsistency: there is a time after which the trusted process is not in
// the suspect set (the third clause of Definition 1).
func (t FDTrace) ECConsistency() Verdict {
	return t.suffixFrom(t.CorrectIDs(), func(_ dsys.ProcessID, s FDSample) bool {
		return s.Trusted != dsys.None && s.Suspected.Has(s.Trusted)
	})
}

// EventuallyConsistent checks all three clauses of Definition 1 and returns
// the latest stabilization among them.
func (t FDTrace) EventuallyConsistent() Verdict {
	sc := t.StrongCompleteness()
	wa := t.EventualWeakAccuracy()
	om := t.OmegaProperty()
	cons := t.ECConsistency()
	v := Verdict{Holds: sc.Holds && wa.Holds && om.Holds && cons.Holds, Witness: om.Witness}
	for _, x := range []Verdict{sc, wa, om, cons} {
		if x.From > v.From {
			v.From = x.From
		}
	}
	return v
}

// EventuallyPerfect checks the ◇P properties (strong completeness +
// eventual strong accuracy).
func (t FDTrace) EventuallyPerfect() Verdict {
	sc := t.StrongCompleteness()
	sa := t.EventualStrongAccuracy()
	v := Verdict{Holds: sc.Holds && sa.Holds}
	if sc.From > sa.From {
		v.From = sc.From
	} else {
		v.From = sa.From
	}
	return v
}

// EventuallyStrong checks the ◇S properties (strong completeness + eventual
// weak accuracy).
func (t FDTrace) EventuallyStrong() Verdict {
	sc := t.StrongCompleteness()
	wa := t.EventualWeakAccuracy()
	v := Verdict{Holds: sc.Holds && wa.Holds, Witness: wa.Witness}
	if sc.From > wa.From {
		v.From = sc.From
	} else {
		v.From = wa.From
	}
	return v
}
