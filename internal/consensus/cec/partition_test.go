package cec_test

import (
	"testing"
	"time"

	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/network"
)

// TestPartitionMajoritySideDecides cuts {p4, p5} off from {p1, p2, p3} for a
// window. The majority side must decide during the partition; the minority
// side must NOT decide anything different (safety through the partition) and
// must learn the decision after the heal (the relayed decide broadcast
// reaches them).
func TestPartitionMajoritySideDecides(t *testing.T) {
	n := 5
	base := network.PartiallySynchronous{GST: 0, Delta: 5 * time.Millisecond}
	net := network.Partitioned{
		Under:  base,
		GroupA: map[dsys.ProcessID]bool{4: true, 5: true},
		From:   0,
		Until:  800 * time.Millisecond,
	}
	res := conslab.Run(conslab.Setup{
		N:      n,
		Seed:   1,
		Net:    net,
		Run:    cecAlgo.Paired,
		RunFor: 6 * time.Second,
	})
	if err := res.Verify(n); err != nil {
		t.Fatal(err)
	}
	// The majority side decided during the partition window.
	for _, id := range []dsys.ProcessID{1, 2, 3} {
		d, _ := res.Log.Decided(id)
		if d.At >= 800*time.Millisecond {
			t.Errorf("%v decided only at %v, after the heal — the majority should not have waited", id, d.At)
		}
	}
	// The minority side could not decide before the heal.
	for _, id := range []dsys.ProcessID{4, 5} {
		d, _ := res.Log.Decided(id)
		if d.At < 800*time.Millisecond {
			t.Errorf("%v decided at %v, during the partition, with only 2 of 5 reachable", id, d.At)
		}
	}
}

// TestMinorityPartitionWithCrashesStaysSafe combines a partition with a
// crash inside the majority side: the remaining majority {p1, p2} + nobody…
// actually {p1, p2} is only 2 of 5, so NO side can decide until the heal;
// afterwards the survivors must decide together.
func TestMinorityPartitionWithCrashesStaysSafe(t *testing.T) {
	n := 5
	base := network.PartiallySynchronous{GST: 0, Delta: 5 * time.Millisecond}
	net := network.Partitioned{
		Under:  base,
		GroupA: map[dsys.ProcessID]bool{4: true, 5: true},
		From:   0,
		Until:  700 * time.Millisecond,
	}
	res := conslab.Run(conslab.Setup{
		N:    n,
		Seed: 2,
		Net:  net,
		Crashes: map[dsys.ProcessID]time.Duration{
			3: 50 * time.Millisecond, // majority side loses a member: 2+2 split
		},
		Run:    cecAlgo.Paired,
		RunFor: 8 * time.Second,
	})
	if err := res.Verify(n); err != nil {
		t.Fatal(err)
	}
	for _, id := range []dsys.ProcessID{1, 2, 4, 5} {
		d, _ := res.Log.Decided(id)
		if d.At < 700*time.Millisecond {
			t.Errorf("%v decided at %v although no majority was connected", id, d.At)
		}
	}
}
