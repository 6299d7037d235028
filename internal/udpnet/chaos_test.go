package udpnet_test

// The datagram chaos soak, mirroring tcpnet's TestChaosSoakMesh on the
// transport that loses natively: the heartbeat ◇P detector runs on an
// all-UDP cluster whose network model injects 20% loss, 20% duplication and
// jitter while the transport reorders; the harness hammers the transport
// with concurrent high-rate noise senders, closes and re-binds every socket
// mid-run, and crashes one process. The acceptance bar: strong completeness of the detector still
// holds over the sampled trace — loss, duplication, reordering and socket
// churn cost latency and mistakes, never correctness — and every injected
// fault demonstrably fired. Run under -race in CI.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/dsys"
	"repro/internal/fd/heartbeat"
	"repro/internal/network"
	"repro/internal/trace"
	"repro/internal/udpnet"
)

func TestChaosSoakUDPMesh(t *testing.T) {
	const (
		n       = 4
		crashed = dsys.ProcessID(3)
		period  = 10 * time.Millisecond
	)
	col := &trace.Collector{} // counters only; the run is chatty
	model := network.Duplicating{P: 0.2, MaxCopies: 2, Under: network.FairLossy{
		P: 0.2, Under: network.Reliable{Latency: network.Uniform{Max: 5 * time.Millisecond}}}}
	tr, c := udpCluster(t, udpnet.Config{N: n, Trace: col, Seed: 42, ReorderP: 0.3, ReorderWindow: 30 * time.Millisecond}, model)

	var mu sync.Mutex
	dets := make(map[dsys.ProcessID]*heartbeat.Detector)
	for _, id := range dsys.Pids(n) {
		id := id
		c.Spawn(id, "fd", func(p dsys.Proc) {
			d := heartbeat.Start(p, heartbeat.Options{Period: period})
			mu.Lock()
			dets[id] = d
			mu.Unlock()
			p.Sleep(time.Hour)
		})
		// Concurrent high-rate senders on top of the detector traffic: every
		// process blasts noise datagrams at every peer, so the send path is
		// exercised from many goroutines at once while faults roll.
		c.Spawn(id, "noise", func(p dsys.Proc) {
			for i := 0; ; i++ {
				for _, to := range p.All() {
					if to != id {
						p.Send(to, "noise", i)
					}
				}
				p.Sleep(time.Millisecond)
			}
		})
		c.Spawn(id, "drain", func(p dsys.Proc) {
			for {
				p.Recv(dsys.MatchKind("noise"))
			}
		})
	}

	rec := check.NewFDRecorder(n)
	sample := func() {
		now := c.Now()
		mu.Lock()
		defer mu.Unlock()
		for _, id := range dsys.Pids(n) {
			if c.Crashed(id) {
				continue
			}
			if d, ok := dets[id]; ok {
				rec.AddSample(id, check.FDSample{At: now, Suspected: d.Suspected(), Trusted: dsys.None})
			}
		}
	}

	var (
		runFor     = 3 * time.Second
		crashAt    = 400 * time.Millisecond
		chaosUntil = 2 * time.Second
		lastRebind time.Duration
		didCrash   bool
	)
	start := time.Now()
	for time.Since(start) < runFor {
		now := time.Since(start)
		if !didCrash && now >= crashAt {
			c.Crash(crashed)
			didCrash = true
		}
		// The mid-run socket close: every ~600ms of the chaos phase, close
		// and re-bind every socket while senders keep firing.
		if now < chaosUntil && now-lastRebind >= 600*time.Millisecond {
			tr.Rebind()
			lastRebind = now
		}
		sample()
		time.Sleep(20 * time.Millisecond)
	}

	ft := check.FDTrace{N: n, Rec: rec, Crashed: col.Crashed()}
	sc := ft.StrongCompleteness()
	if !sc.Holds {
		t.Fatalf("strong completeness violated under datagram chaos (crash at %v; drops=%d dups=%d reorders=%d rebinds=%d)",
			crashAt, col.TotalDropped(), col.LinkEvents("live.dup"),
			col.LinkEvents("udp.reorder"), col.LinkEvents("udp.rebind"))
	}
	if sc.From > runFor-500*time.Millisecond {
		t.Errorf("completeness stabilized only at %v of a %v run — too close to the end to be meaningful", sc.From, runFor)
	}
	q := ft.QoS()
	t.Logf("completeness from %v; qos %+v", sc.From, q)

	// The chaos must actually have happened.
	if col.TotalDropped() == 0 {
		t.Error("no message dropped — fault injection inert")
	}
	for _, ev := range []string{"live.dup", "udp.reorder", "udp.rebind"} {
		if col.LinkEvents(ev) == 0 {
			t.Errorf("no %s traced — fault injection inert", ev)
		}
	}
	if sent, rcvd, _ := tr.Stats(); sent == 0 || rcvd == 0 {
		t.Errorf("transport stats %d sent / %d received — soak inert", sent, rcvd)
	}
}
