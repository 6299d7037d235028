package main

import (
	"sync"
	"time"

	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/tcpnet"
	"repro/internal/trace"
)

// transportProbes measures the two transport layers on their own, outside any
// workload: tcpnet's raw frame rate and live's mailbox wake-up cost.
func transportProbes(m map[string]float64, o runOpts) {
	perPair := 20000
	rounds := 20000
	if o.quick {
		perPair, rounds = 500, 500
	}
	m["tcpnet.flood_msgs_s"] = floodProbe(perPair)
	m["live.mailbox_roundtrip_us"] = mailboxProbe(rounds)
}

// floodProbe sends perPair nil-payload frames on every directed link of an
// n=3 mesh at once and returns delivered messages per second.
func floodProbe(perPair int) float64 {
	col := &trace.Collector{}
	mesh, err := tcpnet.New(tcpnet.Config{N: liveN, Trace: col, QueueLen: 2 * perPair})
	if err != nil {
		return 0
	}
	defer mesh.Stop()
	pids := dsys.Pids(liveN)
	match := dsys.MatchKind("bench.flood")
	for _, id := range pids {
		mesh.Spawn(id, "drain", func(p dsys.Proc) {
			for {
				p.Recv(match)
			}
		})
	}
	burst := func(count int) {
		var wg sync.WaitGroup
		for _, id := range pids {
			wg.Add(1)
			mesh.Spawn(id, "flood", func(p dsys.Proc) {
				defer wg.Done()
				for i := 0; i < count; i++ {
					for _, to := range pids {
						if to != p.ID() {
							p.Send(to, "bench.flood", nil)
						}
					}
				}
			})
		}
		wg.Wait()
	}
	await := func(target int) bool {
		deadline := time.Now().Add(20 * time.Second)
		for col.Delivered("bench.flood") < target {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(200 * time.Microsecond)
		}
		return true
	}
	links := liveN * (liveN - 1)
	burst(1) // dial every link outside the timed stretch
	if !await(links) {
		return 0
	}
	t := time.Now()
	burst(perPair)
	if !await(links * (perPair + 1)) {
		return 0
	}
	return float64(links*perPair) / time.Since(t).Seconds()
}

// mailboxProbe bounces one message between two tasks of a bare live.Cluster
// (zero link delay, no transport) and returns microseconds per round trip:
// two mailbox appends, two condition-variable wake-ups.
func mailboxProbe(rounds int) float64 {
	c := live.NewCluster(live.Config{N: 2, Network: network.Reliable{Latency: network.Fixed(0)}})
	defer c.Stop()
	match := dsys.MatchKind("bench.ping")
	c.Spawn(2, "echo", func(p dsys.Proc) {
		for {
			p.Recv(match)
			p.Send(1, "bench.ping", nil)
		}
	})
	done := make(chan time.Duration, 1)
	c.Spawn(1, "ping", func(p dsys.Proc) {
		t := time.Now()
		for i := 0; i < rounds; i++ {
			p.Send(2, "bench.ping", nil)
			p.Recv(match)
		}
		done <- time.Since(t)
	})
	select {
	case d := <-done:
		return float64(d.Microseconds()) / float64(rounds)
	case <-time.After(30 * time.Second):
		return 0
	}
}
