package fdlab

import (
	"fmt"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/amplify"
	"repro/internal/fd/ec"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/neighbor"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
)

// Stack is one named detector construction of the paper: a detector, a
// reduction between detector classes (Section 3), or the ◇C→◇P
// transformation (Fig. 2).
type Stack struct {
	// Name identifies the stack (fdsim's -detector value).
	Name string
	// Start builds the stack on p, passing period to every module in it
	// (0 keeps each module's default), and returns the module to probe.
	Start func(p dsys.Proc, period time.Duration) any
	// Kinds are the message kinds the stack sends in steady state, and
	// PerPeriod is their closed-form count per period at n processes. Both
	// are nil for stacks no experiment counts.
	Kinds     []string
	PerPeriod func(n int) int
}

// Build returns a Setup.Build that starts the stack with the given period.
func (s Stack) Build(period time.Duration) func(p dsys.Proc) any {
	return func(p dsys.Proc) any { return s.Start(p, period) }
}

// pair exposes a Suspector and a LeaderOracle of different modules as one
// probe target: the transformation supplies the suspect list, the detector
// under it the leader.
type pair struct {
	fd.Suspector
	fd.LeaderOracle
}

// Stacks returns the catalog in a fixed order.
func Stacks() []Stack {
	twice := func(n int) int { return 2 * (n - 1) }
	return []Stack{
		{Name: "heartbeat", Start: func(p dsys.Proc, period time.Duration) any {
			return heartbeat.Start(p, heartbeat.Options{Period: period})
		}, Kinds: []string{heartbeat.KindAlive}, PerPeriod: func(n int) int { return n*n - n }},
		{Name: "ring", Start: func(p dsys.Proc, period time.Duration) any {
			return ring.Start(p, ring.Options{Period: period})
		}, Kinds: []string{ring.KindBeat, ring.KindWatch}, PerPeriod: func(n int) int { return n }},
		{Name: "neighbor", Start: func(p dsys.Proc, period time.Duration) any {
			return neighbor.Start(p, neighbor.Options{Period: period})
		}},
		{Name: "amplified-neighbor", Start: func(p dsys.Proc, period time.Duration) any {
			return amplify.Start(p, neighbor.Start(p, neighbor.Options{Period: period}), amplify.Options{Period: period})
		}, PerPeriod: func(n int) int { return n + n*(n-1) }},
		{Name: "leaderbeat", Start: func(p dsys.Proc, period time.Duration) any {
			return omega.StartLeaderBeat(p, omega.Options{Period: period})
		}},
		{Name: "stable", Start: func(p dsys.Proc, period time.Duration) any {
			return omega.StartStable(p, omega.Options{Period: period})
		}},
		{Name: "gossip", Start: func(p dsys.Proc, period time.Duration) any {
			hb := heartbeat.Start(p, heartbeat.Options{Period: period})
			return omega.StartFromSuspector(p, hb, omega.Options{Period: period})
		}},
		{Name: "from-perfect", Start: func(p dsys.Proc, period time.Duration) any {
			return ec.FromPerfect{S: heartbeat.Start(p, heartbeat.Options{Period: period}), N: p.N()}
		}},
		{Name: "from-leader", Start: func(p dsys.Proc, period time.Duration) any {
			return ec.FromLeader{L: omega.StartLeaderBeat(p, omega.Options{Period: period}), N: p.N()}
		}},
		{Name: "weak-route", Start: func(p dsys.Proc, period time.Duration) any {
			// Section 3's route from a weakly complete detector: amplify
			// ◇W/◇Q completeness to ◇P, derive Ω by gossip, and compose.
			nb := neighbor.Start(p, neighbor.Options{Period: period})
			amp := amplify.Start(p, nb, amplify.Options{Period: period})
			return ec.Compose{S: amp, L: omega.StartFromSuspector(p, amp, omega.Options{Period: period})}
		}},
		{Name: "transform", Start: func(p dsys.Proc, period time.Duration) any {
			r := ring.Start(p, ring.Options{Period: period})
			return pair{transform.Start(p, r, transform.Options{Period: period}), r}
		}},
		{Name: "transform-scripted", Start: func(p dsys.Proc, period time.Duration) any {
			return transform.Start(p, fdtest.NewScripted(1), transform.Options{Period: period})
		}, Kinds: []string{transform.KindAlive, transform.KindList}, PerPeriod: twice},
		{Name: "piggyback", Start: func(p dsys.Proc, period time.Duration) any {
			// Task 1 is suppressed: the suspect lists ride LeaderBeat's
			// beacons.
			om := omega.StartLeaderBeat(p, omega.Options{Period: period})
			return pair{transform.Start(p, om, transform.Options{Period: period, Piggyback: om}), om}
		}, Kinds: []string{transform.KindAlive, transform.KindList, omega.KindLeaderBeat}, PerPeriod: twice},
	}
}

// LookupStack returns the named stack, or an error naming the unknown
// detector.
func LookupStack(name string) (Stack, error) {
	for _, s := range Stacks() {
		if s.Name == name {
			return s, nil
		}
	}
	return Stack{}, fmt.Errorf("unknown detector %q", name)
}

// MustStack returns the named stack and panics on an unknown name.
func MustStack(name string) Stack {
	s, err := LookupStack(name)
	if err != nil {
		panic(err)
	}
	return s
}
