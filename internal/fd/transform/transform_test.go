package transform_test

import (
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
	"repro/internal/network"
)

// theoremOneNet builds the exact link assumptions of Theorem 1 for an
// eventual leader ℓ: the n−1 input links of ℓ are partially synchronous
// (GST/Δ), the n−1 output links of ℓ are fair-lossy over a partially
// synchronous base, and every other link is unrestricted — here modeled as
// very lossy and slow, which is *worse* than the theorem needs.
func theoremOneNet(n int, leader dsys.ProcessID, gst, delta time.Duration, loss float64) network.Network {
	ps := network.PartiallySynchronous{GST: gst, Delta: delta}
	links := make(map[network.LinkKey]network.Network)
	for _, q := range dsys.Pids(n) {
		if q == leader {
			continue
		}
		links[network.LinkKey{From: q, To: leader}] = ps
		links[network.LinkKey{From: leader, To: q}] = network.FairLossy{P: loss, Under: ps}
	}
	other := network.FairLossy{P: 0.6, Under: network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 200 * time.Millisecond}}}
	return network.PerLink{Default: other, Links: links}
}

func TestTransformYieldsEventuallyPerfectOverRing(t *testing.T) {
	res := fdlab.Run(fdlab.Setup{
		N:    5,
		Seed: 1,
		Net:  fdlab.PartialSync(100*time.Millisecond, 10*time.Millisecond),
		Crashes: map[dsys.ProcessID]time.Duration{
			3: 300 * time.Millisecond,
			5: 700 * time.Millisecond,
		},
		Build: func(p dsys.Proc) any {
			ec := ring.Start(p, ring.Options{})
			return transform.Start(p, ec, transform.Options{})
		},
		RunFor: 4 * time.Second,
	})
	v := res.Trace.EventuallyPerfect()
	if !v.Holds {
		t.Fatal("transformation output is not ◇P")
	}
	if v.From >= res.End-time.Second {
		t.Errorf("stabilized too late: %v", v.From)
	}
}

func TestTransformUnderTheoremOneLinkAssumptions(t *testing.T) {
	// Only the eventual leader's input links are timely and its output
	// links fair-lossy; all other links lose 60% of messages with latencies
	// up to 200ms. The underlying detector is scripted to agree on p1, so
	// the transformation itself is what is under test.
	n := 5
	res := fdlab.Run(fdlab.Setup{
		N:    n,
		Seed: 2,
		Net:  theoremOneNet(n, 1, 0, 10*time.Millisecond, 0.4),
		Crashes: map[dsys.ProcessID]time.Duration{
			4: 300 * time.Millisecond,
		},
		Build: func(p dsys.Proc) any {
			return transform.Start(p, fdtest.NewScripted(1), transform.Options{})
		},
		RunFor: 5 * time.Second,
	})
	v := res.Trace.EventuallyPerfect()
	if !v.Holds {
		t.Fatal("◇P does not hold under Theorem 1's minimal link assumptions")
	}
}

func TestTransformWorksOverPlainOmega(t *testing.T) {
	// "This algorithm could also be used to transform an Ω failure detector
	// into a ◇P failure detector" — the underlying detector here provides
	// only Trusted().
	res := fdlab.Run(fdlab.Setup{
		N:    5,
		Seed: 3,
		Net:  fdlab.PartialSync(50*time.Millisecond, 10*time.Millisecond),
		Crashes: map[dsys.ProcessID]time.Duration{
			2: 400 * time.Millisecond,
		},
		Build: func(p dsys.Proc) any {
			om := omega.StartLeaderBeat(p, omega.Options{})
			return transform.Start(p, om, transform.Options{})
		},
		RunFor: 4 * time.Second,
	})
	if v := res.Trace.EventuallyPerfect(); !v.Holds {
		t.Fatal("transformation over Ω is not ◇P")
	}
}

func TestTransformSurvivesLeaderCrash(t *testing.T) {
	// The leader itself crashes: the underlying ◇C elects a new leader,
	// which must take over list building, and the old leader must end up on
	// everyone's list.
	res := fdlab.Run(fdlab.Setup{
		N:    5,
		Seed: 4,
		Net:  fdlab.PartialSync(0, 10*time.Millisecond),
		Crashes: map[dsys.ProcessID]time.Duration{
			1: 500 * time.Millisecond, // initial leader
		},
		Build: func(p dsys.Proc) any {
			ec := ring.Start(p, ring.Options{})
			return transform.Start(p, ec, transform.Options{})
		},
		RunFor: 4 * time.Second,
	})
	v := res.Trace.EventuallyPerfect()
	if !v.Holds {
		t.Fatal("◇P lost after leader crash")
	}
	for _, p := range res.Trace.CorrectIDs() {
		ss := res.Trace.Rec.Samples(p)
		if last := ss[len(ss)-1]; !last.Suspected.Has(1) {
			t.Errorf("%v does not suspect the crashed former leader", p)
		}
	}
}

func TestSteadyStateCostIsTwoNMinusOne(t *testing.T) {
	// Section 4: "the cost of this transformation algorithm in terms of the
	// number of messages periodically sent is 2(n−1)": the leader sends its
	// list to the n−1 others and they send I-AM-ALIVE to the leader.
	for _, n := range []int{4, 8, 16} {
		res := fdlab.Run(fdlab.Setup{
			N:    n,
			Seed: 5,
			Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Build: func(p dsys.Proc) any {
				return transform.Start(p, fdtest.NewScripted(1), transform.Options{Period: 10 * time.Millisecond})
			},
			RunFor: time.Second,
		})
		periods := 50
		window := [2]time.Duration{400 * time.Millisecond, 900 * time.Millisecond}
		lists := res.Messages.SentBetween(window[0], window[1], transform.KindList)
		alives := res.Messages.SentBetween(window[0], window[1], transform.KindAlive)
		if lists != periods*(n-1) {
			t.Errorf("n=%d: %d list messages, want %d", n, lists, periods*(n-1))
		}
		if alives != periods*(n-1) {
			t.Errorf("n=%d: %d I-AM-ALIVE messages, want %d", n, alives, periods*(n-1))
		}
	}
}

func TestPiggybackVariantHalvesTransformTraffic(t *testing.T) {
	// Section 4: riding the list on the underlying leader broadcast removes
	// the KindList messages entirely; together with LeaderBeat's n−1
	// beacons the full ◇P stack costs 2(n−1) per period.
	n := 6
	res := fdlab.Run(fdlab.Setup{
		N:    n,
		Seed: 6,
		Net:  fdlab.PartialSync(0, 10*time.Millisecond),
		Crashes: map[dsys.ProcessID]time.Duration{
			4: 300 * time.Millisecond,
		},
		Build: func(p dsys.Proc) any {
			om := omega.StartLeaderBeat(p, omega.Options{})
			return transform.Start(p, om, transform.Options{Piggyback: om})
		},
		RunFor: 4 * time.Second,
	})
	if v := res.Trace.EventuallyPerfect(); !v.Holds {
		t.Fatal("piggybacked transformation is not ◇P")
	}
	if lists := res.Messages.Sent(transform.KindList); lists != 0 {
		t.Errorf("%d standalone list messages sent despite piggybacking", lists)
	}
	if beats := res.Messages.Sent(omega.KindLeaderBeat); beats == 0 {
		t.Error("no leader beats carried the list")
	}
}

func TestAdoptionIgnoresNonTrustedSenders(t *testing.T) {
	// A list from a process we do not currently trust must not be adopted
	// (Task 5 adopts only from the trusted process).
	res := fdlab.Run(fdlab.Setup{
		N:    3,
		Seed: 7,
		Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
		Build: func(p dsys.Proc) any {
			// p1 and p2 both believe themselves leader; p3 trusts p1.
			var d *fdtest.Scripted
			switch p.ID() {
			case 1:
				d = fdtest.NewScripted(1)
			case 2:
				d = fdtest.NewScripted(2)
			default:
				d = fdtest.NewScripted(1)
			}
			return transform.Start(p, d, transform.Options{Period: 10 * time.Millisecond})
		},
		RunFor: time.Second,
	})
	// p2, believing itself leader, never receives I-AM-ALIVEs from p1/p3
	// (they trust p1), so its local list grows to {p1, p3}. If p3 adopted
	// p2's list it would suspect the correct leader p1; it must not.
	for _, s := range res.Trace.Rec.Samples(3) {
		if s.Suspected.Has(1) {
			t.Fatalf("p3 adopted a list from non-trusted p2 at %v", s.At)
		}
	}
	d3 := res.Modules[dsys.ProcessID(3)].(*transform.Detector)
	if d3.Adoptions() == 0 {
		t.Error("p3 never adopted the trusted leader's list")
	}
}

func TestFalseSuspicionRetractionGrowsTimeout(t *testing.T) {
	// High pre-GST latency causes the leader to falsely suspect processes;
	// Task 4 must retract and the system must stabilize.
	const seed = 8
	res := fdlab.Run(fdlab.Setup{
		N:    4,
		Seed: seed,
		Net:  network.PartiallySynchronous{GST: 800 * time.Millisecond, Delta: 10 * time.Millisecond, PreGST: network.Uniform{Min: 0, Max: 150 * time.Millisecond}},
		Build: func(p dsys.Proc) any {
			return transform.Start(p, fdtest.NewScripted(1), transform.Options{})
		},
		RunFor: 5 * time.Second,
	})
	if v := res.Trace.EventuallyPerfect(); !v.Holds {
		t.Fatal("not ◇P after pre-GST turbulence")
	}
	leader := res.Modules[dsys.ProcessID(1)].(*transform.Detector)
	if leader.FalseSuspicions() == 0 {
		// The run is deterministic: no false suspicion means the schedule
		// of seed 8 moved, and the test no longer tests a retraction.
		t.Fatalf("seed %d produced no false suspicion at the leader; the scenario's schedule changed", seed)
	}
}
