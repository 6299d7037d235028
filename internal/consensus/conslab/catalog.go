package conslab

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/consensus/ctc"
	"repro/internal/consensus/mrc"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/rbcast"
)

// Algorithm is one of the three consensus protocols the paper compares
// (Section 5.4).
type Algorithm struct {
	// Name identifies the algorithm (consensussim's -algos value).
	Name string
	// Title names the algorithm and the detector it is paired with.
	Title string
	// Phases is the number of communication steps per round, by
	// construction.
	Phases int
	// Kinds are the protocol's message kinds, excluding reliable broadcast.
	Kinds []string
	// Paired runs the algorithm over the detector it is paired with,
	// started on the process with default options.
	Paired Runner
	// Scripted returns a Runner over the scripted detector c.At(p.ID()).
	// cec and ctc read its suspect list; cec and mrc read its trusted
	// process.
	Scripted func(c *fdtest.Cluster) Runner
}

// Algorithms returns the three protocols in the paper's order: ◇C, then
// the Chandra–Toueg and Mostéfaoui–Raynal baselines.
func Algorithms() []Algorithm {
	return []Algorithm{
		algorithm("cec", "◇C consensus over ring ◇C (this paper)", 5,
			[]string{cec.KindCoord, cec.KindEst, cec.KindProp, cec.KindAck, cec.KindNack}, cec.NewProposal,
			func(p dsys.Proc) fd.EventuallyConsistent { return ring.Start(p, ring.Options{}) }),
		algorithm("ctc", "Chandra–Toueg ◇S over heartbeat ◇P", 4,
			[]string{ctc.KindEst, ctc.KindProp, ctc.KindAck, ctc.KindNack}, ctc.NewProposal,
			func(p dsys.Proc) fd.Suspector { return heartbeat.Start(p, heartbeat.Options{}) }),
		algorithm("mrc", "MR-style Ω consensus over LeaderBeat Ω", 3,
			[]string{mrc.KindLdr, mrc.KindProp, mrc.KindAck}, mrc.NewProposal,
			func(p dsys.Proc) fd.LeaderOracle { return omega.StartLeaderBeat(p, omega.Options{}) }),
	}
}

// algorithm builds a catalog entry from an algorithm's NewProposal, whose
// detector has type D, and the constructor of its paired detector. A
// scripted detector implements every detector interface, so it serves as
// any D.
func algorithm[D any, P consensus.Proposal](name, title string, phases int, kinds []string,
	newProposal func(D, *rbcast.Module, any, consensus.Options) P,
	paired func(p dsys.Proc) D) Algorithm {
	over := func(det func(p dsys.Proc) D) Runner {
		return func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal {
			return newProposal(det(p), rb, v, opt)
		}
	}
	return Algorithm{Name: name, Title: title, Phases: phases, Kinds: kinds, Paired: over(paired),
		Scripted: func(c *fdtest.Cluster) Runner {
			return over(func(p dsys.Proc) D { return any(c.At(p.ID())).(D) })
		}}
}

// LookupAlgorithm returns the named algorithm, or an error naming the
// unknown one.
func LookupAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if a.Name == name {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("unknown algorithm %q", name)
}

// MustAlgorithm returns the named algorithm and panics on an unknown name.
func MustAlgorithm(name string) Algorithm {
	a, err := LookupAlgorithm(name)
	if err != nil {
		panic(err)
	}
	return a
}
