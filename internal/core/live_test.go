package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/ring"
	"repro/internal/tcpnet"
)

// TestConcurrentSubmitBurstsOverTCP is the lost-wake-up regression for the
// driver's outstanding-wake flag, on real sockets and (in CI) under the race
// detector: eight goroutines submit at two replicas in bursts separated by
// idle gaps, so the driver goes idle → busy → idle again and again while
// Submits race its drain. cec's Poll is a whole second: a step that still
// needed a timer — a Submit whose wake-up was lost, a Propose not woken by
// its R-delivery — shows as a second-long stall, far over the 100 ms every
// command is allowed here. At the end a Submit on a crashed process and on a
// stopped mesh must return without panicking or blocking.
func TestConcurrentSubmitBurstsOverTCP(t *testing.T) {
	const (
		n        = 3
		bursts   = 12
		perBurst = 5 // commands per goroutine per burst
		limit    = 100 * time.Millisecond
	)
	m, err := tcpnet.New(tcpnet.Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	var mu sync.Mutex
	submitted := map[string]time.Time{} // payload -> submit time
	latency := map[string]time.Duration{}
	reps := make([]*core.Replica, n+1)
	ready := make(chan struct{}, n)
	for _, id := range dsys.Pids(n) {
		id := id
		m.Spawn(id, "replica", func(p dsys.Proc) {
			r := core.StartReplica(p, core.Config{
				Detector:  ring.Start(p, ring.Options{Period: 5 * time.Millisecond}),
				Consensus: consensus.Options{Poll: time.Second},
				Apply: func(_ int, cmd core.Command) {
					if cmd.Origin != id {
						return
					}
					now := time.Now()
					mu.Lock()
					defer mu.Unlock()
					// A command can be applied before its Submit has returned
					// and stamped it; that is as fast as it gets.
					if at, ok := submitted[cmd.Payload.(string)]; ok {
						latency[cmd.Payload.(string)] = now.Sub(at)
					} else {
						latency[cmd.Payload.(string)] = 0
					}
				},
			})
			mu.Lock()
			reps[id] = r
			mu.Unlock()
			ready <- struct{}{}
		})
	}
	for i := 0; i < n; i++ {
		<-ready
	}
	// One command first, outside the measurement: connections dial lazily and
	// the detectors settle on p1.
	reps[2].Submit("warm-up")
	waitApplied(t, reps[1:], 1)

	total := 1
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep := reps[2+g%2]
				for i := 0; i < perBurst; i++ {
					payload := fmt.Sprintf("b%d-g%d-%d", b, g, i)
					now := time.Now()
					mu.Lock()
					submitted[payload] = now
					mu.Unlock()
					rep.Submit(payload)
				}
			}()
		}
		wg.Wait()
		total += 8 * perBurst
		waitApplied(t, reps[1:], total)
		time.Sleep(time.Duration(1+b%4) * time.Millisecond) // idle gap: the drivers park
	}

	mu.Lock()
	if len(latency) != total {
		t.Errorf("%d own commands acknowledged, want %d", len(latency), total)
	}
	var worst time.Duration
	var worstCmd string
	for cmd, d := range latency {
		if d > worst {
			worst, worstCmd = d, cmd
		}
	}
	mu.Unlock()
	if worst > limit {
		t.Errorf("command %s took %v from Submit to Apply at its origin, limit %v: some step waited for a timer", worstCmd, worst, limit)
	}

	// Prefix agreement (here: equality, every replica applied everything) and
	// per-origin FIFO with contiguous sequence numbers.
	ref := reps[1].Applied()
	for _, id := range dsys.Pids(n)[1:] {
		got := reps[id].Applied()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("logs diverge at entry %d: %v has %+v, p1 has %+v", i, id, got[i], ref[i])
			}
		}
	}
	lastSeq := map[dsys.ProcessID]int64{}
	for _, e := range ref {
		if last, seen := lastSeq[e.Cmd.Origin]; seen && e.Cmd.Seq != last+1 {
			t.Fatalf("origin %v: Seq %d applied after %d", e.Cmd.Origin, e.Cmd.Seq, last)
		}
		lastSeq[e.Cmd.Origin] = e.Cmd.Seq
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Crash(3)
		reps[3].Submit("on a crashed process")
		m.Stop()
		reps[2].Submit("on a stopped mesh")
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit on a crashed or stopped process blocked")
	}
}

// waitApplied waits until every replica has applied want commands.
func waitApplied(t *testing.T, reps []*core.Replica, want int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for _, r := range reps {
		for r.AppliedLen() < want {
			if time.Now().After(deadline) {
				t.Fatalf("replica stuck at %d of %d applied commands", r.AppliedLen(), want)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}
