// Package ec builds Eventually Consistent (◇C) failure detectors — the
// paper's new class (Definition 1) — from other detectors, following the
// constructions of Section 3:
//
//   - FromLeader: ◇C on top of any Ω detector. Trusted is passed through;
//     Suspected is "everybody except the trusted process". Free of extra
//     messages but with the poorest possible accuracy, exactly as the paper
//     observes.
//
//   - FromPerfect: ◇C on top of any ◇P detector. Suspected is passed
//     through; Trusted is the first process in the order p1 < ... < pn not
//     in the suspect set. Because ◇P suspect sets eventually coincide at
//     every correct process (eventual strong accuracy + strong
//     completeness), all correct processes eventually agree on that choice.
//
//   - Compose: ◇C from an independent ◇S suspector and Ω oracle. The
//     trusted process is removed from the reported suspect set, which
//     enforces the class's third property (eventually trusted ∉ suspected)
//     by construction; once Ω has converged to a correct process the
//     removal can only improve accuracy, and completeness is unaffected.
//
// The ring detector (package ring) implements ◇C natively at no extra cost,
// which is the construction the paper actually advocates.
package ec

import (
	"repro/internal/dsys"
	"repro/internal/fd"
)

// FromLeader adapts an Ω oracle into a ◇C detector by suspecting everyone
// except the trusted process (including, per the paper's description,
// potentially the querying process itself).
type FromLeader struct {
	L fd.LeaderOracle
	N int
}

var _ fd.EventuallyConsistent = FromLeader{}

// Trusted implements fd.LeaderOracle.
func (d FromLeader) Trusted() dsys.ProcessID { return d.L.Trusted() }

// Suspected implements fd.Suspector: Π minus the trusted process.
func (d FromLeader) Suspected() fd.Set {
	t := d.L.Trusted()
	var s fd.Set
	for i := 1; i <= d.N; i++ {
		if q := dsys.ProcessID(i); q != t {
			s.Add(q)
		}
	}
	return s
}

// FromPerfect adapts a ◇P suspector into a ◇C detector by trusting the
// first non-suspected process. The construction is only sound on ◇P-quality
// input: with mere ◇S the suspect sets of different processes need not
// converge and the extracted leaders could disagree forever.
type FromPerfect struct {
	S fd.Suspector
	N int
}

var _ fd.EventuallyConsistent = FromPerfect{}

// Suspected implements fd.Suspector.
func (d FromPerfect) Suspected() fd.Set { return d.S.Suspected() }

// Trusted implements fd.LeaderOracle.
func (d FromPerfect) Trusted() dsys.ProcessID {
	return fd.FirstNonSuspected(d.S.Suspected(), d.N)
}

// Compose combines a ◇S suspector with an Ω oracle into a ◇C detector.
type Compose struct {
	S fd.Suspector
	L fd.LeaderOracle
}

var _ fd.EventuallyConsistent = Compose{}

// Trusted implements fd.LeaderOracle.
func (d Compose) Trusted() dsys.ProcessID { return d.L.Trusted() }

// Suspected implements fd.Suspector, withholding the currently trusted
// process to guarantee the ◇C consistency property.
func (d Compose) Suspected() fd.Set {
	s := d.S.Suspected()
	if t := d.L.Trusted(); t != dsys.None {
		s.Remove(t)
	}
	return s
}
