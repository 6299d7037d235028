package amplify_test

import (
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/amplify"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestWeakBecomesStrongCompleteness feeds the amplification the weakest
// complete input there is — after the crash exactly one correct process, the
// witness, suspects the crashed one, and nobody suspects anything else — and
// requires the output to be strongly complete and still accurate: every
// survivor ends suspecting exactly the crashed process, nobody suspected
// anyone before the crash, and the steady state costs n(n−1) messages per
// period, the price the paper attributes to this reduction.
func TestWeakBecomesStrongCompleteness(t *testing.T) {
	const (
		n       = 6
		victim  = dsys.ProcessID(4)
		witness = dsys.ProcessID(2)
		period  = 10 * time.Millisecond
		crashAt = 250 * time.Millisecond
	)
	col := trace.NewCollector()
	k := sim.New(sim.Config{N: n, Network: network.Reliable{Latency: network.Fixed(time.Millisecond)}, Seed: 7, Trace: col})
	under := make([]*fdtest.Scripted, n)
	mods := make([]*amplify.Detector, n)
	for _, id := range dsys.Pids(n) {
		k.Spawn(id, "fd-setup", func(p dsys.Proc) {
			under[p.ID()-1] = fdtest.NewScripted(dsys.None)
			mods[p.ID()-1] = amplify.Start(p, under[p.ID()-1], amplify.Options{Period: period})
		})
	}
	k.CrashAt(victim, crashAt)
	k.ScheduleFunc(crashAt-time.Millisecond, func(time.Duration) {
		for _, id := range dsys.Pids(n) {
			if s := mods[id-1].Suspected(); s.Len() != 0 {
				t.Errorf("%v suspects %v before any crash", id, s)
			}
		}
	})
	// The witness's module notices a few periods after the crash.
	k.ScheduleFunc(crashAt+3*period, func(time.Duration) { under[witness-1].Suspect(victim) })
	k.Run(crashAt + 20*period)

	for _, id := range dsys.Pids(n) {
		if id == victim {
			continue
		}
		if id != witness && under[id-1].Suspected().Len() != 0 {
			t.Fatalf("%v's input suspects someone; the input was meant to be only weakly complete", id)
		}
		if s := mods[id-1].Suspected(); !s.Equal(fd.NewSet(victim)) {
			t.Errorf("%v ends suspecting %v, want exactly {%v}", id, s, victim)
		}
	}
	const periods = 10
	from := 100 * time.Millisecond
	if got, want := col.SentBetween(from, from+periods*period, amplify.KindSets), periods*n*(n-1); got != want {
		t.Errorf("%d messages in %d steady-state periods, want n(n−1) = %d per period (%d)", got, periods, n*(n-1), want)
	}
}
