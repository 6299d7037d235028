package sim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
)

// TestArenaGenerationCatchesStaleHandle checks the stale-holder defence at
// the arena level: a handle retained across a recycle carries the old
// generation, and any attempt to touch the slot through it must be detected
// by the generation check rather than silently reading the new occupant.
func TestArenaGenerationCatchesStaleHandle(t *testing.T) {
	var a msgArena
	h, s := a.alloc()
	s.refs = 1
	staleGen := s.gen
	a.unref(h) // drops to zero: recycles, bumps the generation
	h2, s2 := a.alloc()
	if h2 != h {
		t.Fatalf("free list did not reuse slot %d (got %d)", h, h2)
	}
	if s2.gen == staleGen {
		t.Fatalf("recycled slot kept generation %d; a stale holder would go undetected", staleGen)
	}
	// The kernel's delivery path compares the scheduled generation against
	// the slot's: a mismatch means the event outlived its message.
	if a.slot(h).gen == staleGen {
		t.Fatal("slot lookup returned the stale generation")
	}
}

// TestArenaRecycleStress is the -race stress test for message-slot reuse:
// duplicated deliveries sharing one refcounted slot, crashes unreffing whole
// buffers mid-flight, callback receive loops and step tasks consuming in
// place, blocking tasks escaping messages to the heap, and receive timeouts
// abandoning parked matches — all while slots recycle constantly. The kernel panics on
// any generation mismatch at fire time, so surviving the run proves no
// recycled slot was ever observed through a stale handle; the final live
// count proves every reference was returned.
func TestArenaRecycleStress(t *testing.T) {
	for _, goroutines := range []bool{false, true} {
		const n = 12
		k := New(Config{
			N: n,
			Network: network.Duplicating{
				P: 0.5, MaxCopies: 4,
				Under: network.FairLossy{P: 0.3, Under: network.Reliable{Latency: network.Uniform{Min: 100 * time.Microsecond, Max: 5 * time.Millisecond}}},
			},
			Seed: 77,
		})
		received, stepped := 0, 0
		for i := 1; i <= n; i++ {
			id := dsys.ProcessID(i)
			rng := rand.New(rand.NewSource(int64(i)))
			blast := dsys.TickLoop{Period: 500 * time.Microsecond, Immediate: true, Fn: func(p dsys.Proc) {
				// Stop sending well before the run's end so every delivery
				// (max latency 5ms) lands or drops before the cutoff and the
				// final live count checks a fully drained arena.
				if p.Now() > 150*time.Millisecond {
					return
				}
				for j := 0; j < 3; j++ {
					p.Send(dsys.ProcessID(1+rng.Intn(n)), "m", j)
				}
				p.Send(dsys.ProcessID(1+rng.Intn(n)), "s", 3)
			}}
			drain := func(p dsys.Proc, m *dsys.Message) { received++ }
			if goroutines {
				blastStep, drainStep := dsys.TickLoopStep(blast), dsys.RecvLoopStep(drain, "m")
				k.Spawn(id, "blast", func(p dsys.Proc) { dsys.RunSteps(p, blastStep) })
				k.Spawn(id, "drain", func(p dsys.Proc) { dsys.RunSteps(p, drainStep) })
			} else {
				k.SpawnTickLoop(id, "blast", blast)
				k.SpawnRecvLoop(id, "drain", drain, "m")
			}
			// A blocking consumer competing for the same kind: exercises the
			// escape-to-heap path and timeout-abandoned parks.
			k.Spawn(id, "block", func(p dsys.Proc) {
				for {
					if m, ok := p.RecvTimeout(dsys.MatchKind("m"), 3*time.Millisecond); ok {
						received += int(m.Payload.(int)) * 0 // touch the escaped payload
					}
				}
			})
			// A step task, sole consumer of kind "s", alternating zero-timeout
			// polls on the kind with timed waits on a predicate: exercises a
			// woken or buffer-taken slot held until the step returns, and
			// released when a crash finds the task parked.
			isS := dsys.MatchFunc(func(m *dsys.Message) bool { return m.Kind == "s" })
			poll := false
			step := func(p dsys.Proc, m *dsys.Message) dsys.Wait {
				if m != nil {
					stepped += m.Payload.(int) / 3 // touch the payload in its slot
				}
				if poll = !poll; poll {
					return dsys.AwaitTimeout(dsys.MatchKind("s"), 0)
				}
				return dsys.AwaitTimeout(isS, 2*time.Millisecond)
			}
			if goroutines {
				k.Spawn(id, "step", func(p dsys.Proc) { dsys.RunSteps(p, step) })
			} else {
				k.spawnStep(k.procAt(id), "step", step)
			}
		}
		// Crashes drop whole processes with full buffers and parked tasks.
		for i := 0; i < 6; i++ {
			k.CrashAt(dsys.ProcessID(2*i+1), time.Duration(20+10*i)*time.Millisecond)
		}
		k.Run(200 * time.Millisecond)
		if received == 0 || stepped == 0 {
			t.Fatalf("stress run delivered %d messages to loops and blocking tasks, %d to step tasks; the workload is not exercising the arena", received, stepped)
		}
		if live := k.arena.live(); live != 0 {
			t.Errorf("goroutines=%v: arena retains %d live slots after the run; some reference was never returned", goroutines, live)
		}
	}
}

// TestArenaBoundedOverLongRun is the leak test for the arena: a run firing
// ~10M events must keep the arena's capacity at the in-flight peak — a few
// hundred slots for this workload — not grow with the event count. Before
// the free-list design, every send allocated; a regression that loses slots
// (a missed unref) shows up here as capacity tracking the total send count.
func TestArenaBoundedOverLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-event run")
	}
	const n = 32
	k := New(Config{
		N:       n,
		Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
		Seed:    9,
	})
	for i := 1; i <= n; i++ {
		id := dsys.ProcessID(i)
		k.SpawnTickLoop(id, "beat", dsys.TickLoop{Period: time.Millisecond, Immediate: true, Fn: func(p dsys.Proc) {
			if p.Now() > 10*time.Second-5*time.Millisecond {
				return // let the last burst land before the run's cutoff
			}
			for _, q := range p.All() {
				if q != id {
					p.Send(q, "hb", nil)
				}
			}
		}})
		k.SpawnRecvLoop(id, "sink", func(p dsys.Proc, m *dsys.Message) {}, "hb")
	}
	// n·(n−1) deliveries plus n timer fires per virtual ms ≈ 1k events/ms:
	// 10s of virtual time is ~10M events.
	k.Run(10 * time.Second)
	if ev := k.Events(); ev < 10_000_000 {
		t.Fatalf("run fired only %d events; the leak bound below assumes ~10M", ev)
	}
	if live := k.arena.live(); live != 0 {
		t.Errorf("arena retains %d live slots after the run", live)
	}
	// In-flight peak: n·(n−1) messages per 1ms latency window ≈ 1k slots,
	// plus chunk-granularity slack. 4096 slots (16 chunks) is an order of
	// magnitude below anything that grows with the 5M sends of this run.
	if cap := k.arena.capacity(); cap > 4096 {
		t.Errorf("arena grew to %d slots for a ~1k in-flight peak; capacity must track the peak, not the send count", cap)
	}
}
