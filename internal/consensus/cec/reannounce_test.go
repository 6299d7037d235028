package cec_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/consensus/cec"
	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
	"repro/internal/sim"
)

// TestLostAnnouncementRecoveredByReproposal reproduces the leader-restart
// wedge found in the multi-process cluster (E16): the coordinator's Phase 0
// announcement to one participant is lost exactly while the coordinator's
// detector suspects that participant, so the coordinator sails through
// Phase 2 without it and proposes. When the suspicion then clears (the
// participant was only restarting), Phase 4's "every non-suspected process
// answered" rule waits for a participant that is parked in Phase 0: it
// ignores the retransmitted bare propositions because it never learned the
// round's coordinator. The coordinator's idle retransmission must therefore
// re-announce alongside re-proposing; without that the instance wedges
// until the detector's suspicions change again.
func TestLostAnnouncementRecoveredByReproposal(t *testing.T) {
	n := 3
	c := fdtest.NewCluster(n, 1) // everyone trusts p1 throughout
	c.At(1).SetSuspected(3)      // p1 suspects p3, as after killing it
	drop := network.Func(func(from, to dsys.ProcessID, kind string, now time.Duration, _ *rand.Rand) (time.Duration, bool) {
		// p3's link comes up at 3ms (its "restart"): the round-1
		// announcement, sent before that, is the one lost message.
		if kind == cec.KindCoord && from == 1 && to == 3 && now < 3*time.Millisecond {
			return 0, true
		}
		return time.Millisecond, false
	})
	res := conslab.Run(conslab.Setup{
		N:    n,
		Seed: 21,
		Net:  drop,
		Run:  cecAlgo.Scripted(c),
		Before: func(k *sim.Kernel) {
			// The suspicion clears just after p1 proposed — before p2's ack
			// arrives — so Phase 4's wait rule re-includes p3.
			k.Every(3*time.Millisecond, time.Hour, func(time.Duration) {
				c.At(1).SetSuspected()
			})
		},
		RunFor: 5 * time.Second,
	})
	if err := res.Verify(n); err != nil {
		t.Fatal(err)
	}
	for _, id := range dsys.Pids(n) {
		d, ok := res.Log.Decided(id)
		if !ok {
			t.Fatalf("p%d never decided", id)
		}
		// Recovery is one idle-retransmission period, not a detector event:
		// well under a second even with default probe pacing.
		if d.At > time.Second {
			t.Errorf("p%d decided only at %v — re-announcement did not unwedge the instance", id, d.At)
		}
	}
}
