// TCP cluster: the paper's full stack — ring ◇C detector, reliable
// broadcast, ◇C consensus — over REAL TCP loopback sockets (package tcpnet),
// with faults injected on purpose. Five processes listen on ephemeral
// ports, dial a full mesh, elect a leader and agree while the link model
// drops 3% of messages; then the leader is crashed AND every connection is
// forcibly reset, and the survivors reconnect and agree again.
//
// Run with (takes a few wall-clock seconds):
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/dsys"
	"repro/internal/fd/ring"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/tcpnet"
	"repro/internal/trace"
)

func main() {
	const n = 5
	col := trace.NewCollector()
	// Fair-lossy links on purpose: every message has a 3% chance to vanish,
	// planned by the same network model the simulator runs. The detectors
	// and consensus are built for exactly this.
	lossy := network.FairLossy{P: 0.03, Under: network.Reliable{Latency: network.Fixed(0)}}
	mesh, err := tcpnet.New(tcpnet.Config{N: n, Trace: col, Network: lossy, Seed: 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcpcluster: %v\n", err)
		os.Exit(1)
	}
	defer mesh.Stop()

	// Ctrl-C tears the mesh down cleanly (sockets closed, writers unwound)
	// instead of leaving the runtime to die mid-write.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "tcpcluster: %v, shutting down\n", s)
		mesh.Stop()
		os.Exit(1)
	}()

	fmt.Println("tcpcluster: real sockets, one per process, 3% frame loss injected")
	for _, id := range dsys.Pids(n) {
		fmt.Printf("  %v listens on %s\n", id, mesh.Addr(id))
	}

	type outcome struct {
		id  dsys.ProcessID
		res consensus.Result
	}
	results := make(chan outcome, n)
	for _, id := range dsys.Pids(n) {
		id := id
		mesh.Spawn(id, "main", func(p dsys.Proc) {
			det := ring.Start(p, ring.Options{Period: 10 * time.Millisecond})
			rb := rbcast.Start(p)
			// Instance 1: all five alive (but lossy links).
			r1 := cec.Propose(p, det, rb, fmt.Sprintf("first-%v", id), consensus.Options{Instance: "1", Poll: 2 * time.Millisecond})
			results <- outcome{id, r1}
			// Instance 2 runs after the leader is crashed and every TCP
			// connection is torn down from outside.
			p.Sleep(300 * time.Millisecond)
			r2 := cec.Propose(p, det, rb, fmt.Sprintf("second-%v", id), consensus.Options{Instance: "2", Poll: 2 * time.Millisecond})
			results <- outcome{id, r2}
		})
	}

	for i := 0; i < n; i++ {
		o := <-results
		fmt.Printf("  instance 1: %v decided %v (round %d)\n", o.id, o.res.Value, o.res.Round)
	}
	fmt.Println(">>> crashing p1 (the leader) and resetting EVERY connection")
	mesh.Crash(1)
	mesh.ResetConns() // writers redial with backoff; traffic resumes
	for i := 0; i < n-1; i++ {
		o := <-results
		fmt.Printf("  instance 2: %v decided %v (round %d)\n", o.id, o.res.Value, o.res.Round)
	}
	fmt.Printf("total messages sent: %d, dropped by the link model: %d\n", col.TotalSent(), col.TotalDropped())
	fmt.Printf("transport events:")
	for _, ev := range col.LinkEventNames() {
		fmt.Printf(" %s=%d", ev, col.LinkEvents(ev))
	}
	fmt.Println()
}
