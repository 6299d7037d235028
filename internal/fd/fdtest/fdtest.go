// Package fdtest provides scriptable failure detectors for unit tests and
// adversarial experiments: the harness dictates exactly what every module
// returns and when, which is how experiments E6/E7/E9 place the system in
// the precise detector states the paper's analysis reasons about.
package fdtest

import (
	"sync"

	"repro/internal/dsys"
	"repro/internal/fd"
)

// Scripted is a ◇C detector whose outputs are set directly by the harness.
// It is safe for concurrent use. The zero value suspects nobody and trusts
// dsys.None.
type Scripted struct {
	mu      sync.Mutex
	susp    fd.Set
	trusted dsys.ProcessID
}

var _ fd.EventuallyConsistent = (*Scripted)(nil)

// NewScripted returns a detector initially trusting trusted and suspecting
// the given processes.
func NewScripted(trusted dsys.ProcessID, suspected ...dsys.ProcessID) *Scripted {
	return &Scripted{trusted: trusted, susp: fd.NewSet(suspected...)}
}

// Suspected implements fd.Suspector.
func (s *Scripted) Suspected() fd.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.susp.Clone()
}

// Trusted implements fd.LeaderOracle.
func (s *Scripted) Trusted() dsys.ProcessID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trusted
}

// SetTrusted changes the trusted process.
func (s *Scripted) SetTrusted(t dsys.ProcessID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trusted = t
}

// SetSuspected replaces the suspect set.
func (s *Scripted) SetSuspected(ids ...dsys.ProcessID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.susp = fd.NewSet(ids...)
}

// Suspect adds processes to the suspect set.
func (s *Scripted) Suspect(ids ...dsys.ProcessID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		s.susp.Add(id)
	}
}

// Unsuspect removes processes from the suspect set.
func (s *Scripted) Unsuspect(ids ...dsys.ProcessID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		s.susp.Remove(id)
	}
}

// Cluster is a set of Scripted detectors, one per process, with convenience
// operations over all of them.
type Cluster struct {
	N   int
	Det map[dsys.ProcessID]*Scripted
}

// NewCluster builds n scripted detectors, all trusting trusted and
// suspecting nobody.
func NewCluster(n int, trusted dsys.ProcessID) *Cluster {
	c := &Cluster{N: n, Det: make(map[dsys.ProcessID]*Scripted, n)}
	for _, id := range dsys.Pids(n) {
		c.Det[id] = NewScripted(trusted)
	}
	return c
}

// At returns the detector module of process id.
func (c *Cluster) At(id dsys.ProcessID) *Scripted { return c.Det[id] }

// SetTrustedEverywhere makes every module trust t.
func (c *Cluster) SetTrustedEverywhere(t dsys.ProcessID) {
	for _, d := range c.Det {
		d.SetTrusted(t)
	}
}

// SuspectEverywhere adds ids to every module's suspect set.
func (c *Cluster) SuspectEverywhere(ids ...dsys.ProcessID) {
	for _, d := range c.Det {
		d.Suspect(ids...)
	}
}
