package sim_test

import (
	"fmt"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/sim"
)

// Two processes exchange a request and a reply over a deterministic
// simulated network. The client is a step task: its first step sends the
// request and waits for the answer, its second step prints it. The server
// is a receive loop. The run is reproducible: identical output every time.
func ExampleKernel() {
	k := sim.New(sim.Config{
		N:       2,
		Network: network.Reliable{Latency: network.Fixed(3 * time.Millisecond)},
		Seed:    1,
	})
	k.SpawnStep(1, "client", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if m == nil {
			p.Send(2, "square", 7)
			return dsys.Await(dsys.MatchKind("answer"))
		}
		fmt.Printf("client got %v at t=%v\n", m.Payload, p.Now())
		return dsys.Finished
	})
	k.SpawnRecvLoop(2, "server", func(p dsys.Proc, m *dsys.Message) {
		x := m.Payload.(int)
		p.Send(m.From, "answer", x*x)
	}, "square")
	k.Run(time.Second)
	// Output:
	// client got 49 at t=6ms
}

// Crashes end a process's tasks and silence it permanently; timers and
// timeouts drive the virtual clock.
func ExampleKernel_CrashAt() {
	k := sim.New(sim.Config{
		N:       2,
		Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
		Seed:    1,
	})
	k.SpawnTickLoop(1, "beater", dsys.TickLoop{
		Period:    10 * time.Millisecond,
		Immediate: true,
		Fn:        func(p dsys.Proc) { p.Send(2, "beat", nil) },
	})
	started := false
	k.SpawnStep(2, "monitor", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if started && m == nil {
			fmt.Printf("silence detected at t=%v\n", p.Now())
			return dsys.Finished
		}
		started = true
		return dsys.AwaitTimeout(dsys.MatchKind("beat"), 25*time.Millisecond)
	})
	k.CrashAt(1, 35*time.Millisecond)
	k.Run(time.Second)
	// Output:
	// silence detected at t=56ms
}
