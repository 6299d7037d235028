package tcpnet_test

// The chaos soak: heartbeat ◇P, LeaderBeat Ω and the paper's ◇C consensus
// run together on the real TCP mesh while the harness injects 5% frame
// loss, probabilistic and forced connection resets, and a process crash.
// The acceptance bar (ISSUE 1): strong completeness of the heartbeat
// detector still holds over the sampled trace, and a consensus instance
// started after the crash — entirely under chaos — still decides with
// agreement, i.e. no message loss is permanent once connections reconnect.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/dsys"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/tcpnet"
	"repro/internal/trace"
)

func TestChaosSoakMesh(t *testing.T) {
	const (
		n       = 4
		crashed = dsys.ProcessID(3)
		period  = 10 * time.Millisecond
	)
	col := &trace.Collector{} // counters only; the run is chatty
	m, err := tcpnet.New(tcpnet.Config{N: n, Trace: col, Seed: 42, ResetP: 0.005,
		Network: network.FairLossy{P: 0.05, Under: network.Reliable{Latency: network.Fixed(0)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	type modules struct {
		hb *heartbeat.Detector
		om *omega.LeaderBeat
	}
	var mu sync.Mutex
	mods := make(map[dsys.ProcessID]modules)
	results := make(chan consensus.Result, n)
	for _, id := range dsys.Pids(n) {
		id := id
		m.Spawn(id, "main", func(p dsys.Proc) {
			hb := heartbeat.Start(p, heartbeat.Options{Period: period})
			om := omega.StartLeaderBeat(p, omega.Options{Period: period})
			det := ring.Start(p, ring.Options{Period: period})
			rb := rbcast.Start(p)
			mu.Lock()
			mods[id] = modules{hb: hb, om: om}
			mu.Unlock()
			// The consensus instance starts only after the crash and the
			// chaos phase have begun, so deciding it proves recovery.
			p.Sleep(800 * time.Millisecond)
			results <- cec.Propose(p, det, rb, "v-"+id.String(),
				consensus.Options{Instance: "chaos", Poll: 2 * time.Millisecond})
		})
	}

	// Sample the detectors from the harness on a fixed schedule, exactly
	// like the simulator's recorder but on wall time.
	rec := check.NewFDRecorder(n)
	sample := func() {
		now := m.Cluster().Now()
		mu.Lock()
		defer mu.Unlock()
		for _, id := range dsys.Pids(n) {
			if m.Cluster().Crashed(id) {
				continue
			}
			md, ok := mods[id]
			if !ok {
				continue
			}
			rec.AddSample(id, check.FDSample{
				At:        now,
				Suspected: md.hb.Suspected(),
				Trusted:   md.om.Trusted(),
			})
		}
	}

	var (
		runFor     = 3 * time.Second
		crashAt    = 400 * time.Millisecond
		chaosUntil = 2 * time.Second
		lastReset  time.Duration
		didCrash   bool
	)
	start := time.Now()
	for time.Since(start) < runFor {
		now := time.Since(start)
		if !didCrash && now >= crashAt {
			m.Crash(crashed)
			didCrash = true
		}
		// Forced connection churn every ~250ms during the chaos phase, on
		// top of the probabilistic ResetP and 5% drops.
		if now < chaosUntil && now-lastReset >= 250*time.Millisecond {
			m.ResetConns()
			lastReset = now
		}
		sample()
		time.Sleep(20 * time.Millisecond)
	}

	// The consensus started at 800ms, under drops, resets and one crashed
	// participant; all correct processes must decide and agree.
	var decided []consensus.Result
	timeout := time.After(60 * time.Second)
	for len(decided) < n-1 {
		select {
		case r := <-results:
			decided = append(decided, r)
		case <-timeout:
			t.Fatalf("only %d of %d correct processes decided under chaos (drops=%d resets=%d dials=%d)",
				len(decided), n-1, col.TotalDropped(), col.LinkEvents("tcp.reset"), col.LinkEvents("tcp.dial"))
		}
	}
	for _, r := range decided[1:] {
		if r.Value != decided[0].Value {
			t.Fatalf("agreement violated under chaos: %v vs %v", r.Value, decided[0].Value)
		}
	}

	// Strong completeness of the heartbeat detector over the recorded
	// trace: the crashed process ends up permanently suspected by every
	// correct process, chaos notwithstanding.
	tr := check.FDTrace{N: n, Rec: rec, Crashed: col.Crashed()}
	sc := tr.StrongCompleteness()
	if !sc.Holds {
		t.Fatalf("strong completeness violated under chaos (crash at %v)", crashAt)
	}
	if sc.From > runFor-500*time.Millisecond {
		t.Errorf("completeness stabilized only at %v of a %v run — too close to the end to be meaningful", sc.From, runFor)
	}
	t.Logf("completeness from %v; omega: %+v", sc.From, tr.OmegaProperty())

	// The chaos must actually have happened, and recovery must be visible:
	// every reset is eventually followed by a successful redial.
	if col.TotalDropped() == 0 {
		t.Error("no frames dropped — fault injection inert")
	}
	if col.LinkEvents("tcp.reset") == 0 {
		t.Error("no connections reset — chaos inert")
	}
	if col.LinkEvents("tcp.dial") < n {
		t.Errorf("tcp.dial = %d — writers did not reconnect", col.LinkEvents("tcp.dial"))
	}
}
