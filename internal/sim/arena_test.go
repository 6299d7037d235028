package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/trace"
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
// place, and timed waits abandoning parked matches — all while slots
// recycle constantly. The kernel panics on
// any generation mismatch at fire time, so surviving the run proves no
// recycled slot was ever observed through a stale handle; the live count at
// the horizon proves every reference was returned.
func TestArenaRecycleStress(t *testing.T) {
	{
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
			k.SpawnTickLoop(id, "blast", blast)
			k.SpawnRecvLoop(id, "drain", drain, "m")
			// A timed consumer competing for the same kind: exercises
			// timeout-abandoned parks.
			k.SpawnStep(id, "timed", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
				if m != nil {
					received += m.Payload.(int) * 0 // touch the payload in its slot
				}
				return dsys.AwaitTimeout(dsys.MatchKind("m"), 3*time.Millisecond)
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
			k.SpawnStep(id, "step", step)
		}
		// Crashes drop whole processes with full buffers and parked tasks.
		for i := 0; i < 6; i++ {
			k.CrashAt(dsys.ProcessID(2*i+1), time.Duration(20+10*i)*time.Millisecond)
		}
		live := -1
		k.ScheduleFunc(200*time.Millisecond, func(time.Duration) { live = k.arena.live() })
		k.Run(200 * time.Millisecond)
		if received == 0 || stepped == 0 {
			t.Fatalf("stress run delivered %d messages of kind m, %d of kind s; the workload is not exercising the arena", received, stepped)
		}
		if live != 0 {
			t.Errorf("arena retains %d live slots at the end of the run; some reference was never returned", live)
		}
	}
}

// TestArenaBoundedOverLongRun is the leak test for the arena: a run firing
// ~10M events must keep the arena's capacity at the in-flight peak — a few
// dozen slots for this workload — not grow with the event count. Before
// the free-list design, every send allocated; a regression that loses slots
// (a missed unref) shows up here as capacity tracking the total send count,
// and one that stops sharing a broadcast's slot as a capacity of ~1k.
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
	live, capacity := -1, 0
	k.ScheduleFunc(10*time.Second, func(time.Duration) { live, capacity = k.arena.live(), k.arena.capacity() })
	k.Run(10 * time.Second)
	if ev := k.Events(); ev < 10_000_000 {
		t.Fatalf("run fired only %d events; the leak bound below assumes ~10M", ev)
	}
	if live != 0 {
		t.Errorf("arena retains %d live slots at the end of the run", live)
	}
	// In-flight peak: n broadcasts per 1ms latency window, each one slot
	// shared by its n−1 copies, so 32 slots. One chunk (256 slots) bounds
	// it; n·(n−1) ≈ 1k slots would mean the copies no longer share.
	if cap := capacity; cap > msgChunkSize {
		t.Errorf("arena grew to %d slots for a peak of %d broadcasts in flight; capacity must track the peak, not the send count", cap, n)
	}
}

// countingNet is a duplicating network that counts the copies it plans.
type countingNet struct {
	network.Duplicating
	copies *int
}

func (c countingNet) PlanCopies(from, to dsys.ProcessID, kind string, now time.Duration, rng *rand.Rand) []time.Duration {
	d := c.Duplicating.PlanCopies(from, to, kind, now, rng)
	*c.copies += len(d)
	return d
}

// refsHeld sums the references on every slot the arena has carved; a free
// slot holds none.
func refsHeld(a *msgArena) int {
	sum := 0
	for h := int32(0); h < a.used; h++ {
		sum += int(a.slot(h).refs)
	}
	return sum
}

// TestBroadcastSharesOneSlot checks that a step's sends of one message share
// one arena slot — and only those: a different kind, payload, sender or step
// takes a new slot. Under a duplicating, lossy network the shared slot's
// references count the copies exactly, and every receiver sees its own
// destination and the sender's shared fields.
func TestBroadcastSharesOneSlot(t *testing.T) {
	const n = 8
	shared := any([]dsys.ProcessID{3, 5}) // boxed once, as a detector's suspect list is
	other := any([]dsys.ProcessID{3, 5})  // the same value, boxed again
	others := func(p dsys.Proc) []dsys.ProcessID {
		var out []dsys.ProcessID
		for _, q := range p.All() {
			if q != p.ID() {
				out = append(out, q)
			}
		}
		return out
	}

	t.Run("one step", func(t *testing.T) {
		k := New(reliableCfg(n, 1))
		var live []int
		broadcast := func(p dsys.Proc, kind string, payload any) {
			for _, q := range others(p) {
				p.Send(q, kind, payload)
			}
			live = append(live, k.arena.live())
		}
		step := 0
		k.SpawnStep(1, "sender", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
			if step++; step == 2 {
				broadcast(p, "b", nil) // a new step
				return dsys.Finished
			}
			broadcast(p, "b", shared)
			broadcast(p, "b", shared) // same kind and payload: same slot
			broadcast(p, "c", shared) // another kind
			broadcast(p, "b", other)  // an equal value boxed apart
			broadcast(p, "b", nil)
			broadcast(p, "b", nil)
			return dsys.AwaitTimeout(dsys.MatchKind("none"), 0) // step again, at once
		})
		k.Spawn(2, "other sender", func(p dsys.Proc) { broadcast(p, "b", nil) })
		type seen struct {
			to, from   dsys.ProcessID
			kind       string
			sentAt     time.Duration
			isShared   bool
			nilPayload bool
		}
		var got []seen
		for _, id := range dsys.Pids(n) {
			k.SpawnRecvLoop(id, "recv", func(p dsys.Proc, m *dsys.Message) {
				got = append(got, seen{m.To, m.From, m.Kind, m.SentAt, samePayload(m.Payload, shared), m.Payload == nil})
				if m.To != p.ID() {
					t.Errorf("p%d received a message addressed to p%d", p.ID(), m.To)
				}
			}, "b", "c")
		}
		left := -1
		k.ScheduleFunc(time.Second, func(time.Duration) { left = k.arena.live() })
		k.Run(time.Second)
		if want := []int{1, 1, 2, 3, 4, 4, 5, 6}; !reflect.DeepEqual(live, want) {
			t.Errorf("live slots after each broadcast: %v, want %v", live, want)
		}
		if left != 0 {
			t.Errorf("arena retains %d live slots at the end of the run", left)
		}
		// 7 broadcasts of n−1 copies each; the first two carry shared from
		// p1 to every other process, in send order.
		if len(got) != 8*(n-1) {
			t.Fatalf("received %d copies, want %d", len(got), 8*(n-1))
		}
		for i, to := range dsys.Pids(n)[1:] {
			for _, g := range []seen{got[i], got[n-1+i]} {
				if want := (seen{to, 1, "b", 0, true, false}); g != want {
					t.Errorf("copy to p%d read %+v, want %+v", to, g, want)
				}
			}
		}
	})

	t.Run("duplicating", func(t *testing.T) {
		planned, received := 0, 0
		k := New(Config{
			N: n,
			Network: countingNet{network.Duplicating{
				P: 0.5, MaxCopies: 4,
				Under: network.FairLossy{P: 0.3, Under: network.Reliable{Latency: network.Uniform{Min: 100 * time.Microsecond, Max: 5 * time.Millisecond}}},
			}, &planned},
			Seed: 5,
		})
		for _, id := range dsys.Pids(n) {
			k.SpawnTickLoop(id, "beat", dsys.TickLoop{Period: time.Millisecond, Immediate: true, Fn: func(p dsys.Proc) {
				if p.Now() < 50*time.Millisecond {
					for _, q := range p.All() {
						p.Send(q, "b", shared) // self included: a self-send shares the slot too
					}
					planned++ // the self-send, which bypasses the network
				}
			}})
			k.SpawnRecvLoop(id, "recv", func(p dsys.Proc, m *dsys.Message) {
				received++
				if m.To != p.ID() || !samePayload(m.Payload, shared) {
					t.Errorf("p%d received %+v", p.ID(), *m)
				}
			}, "b")
		}
		// Between steps every outstanding copy is an event in the queue
		// (the receive loops leave nothing buffered), each holding one
		// reference.
		checks := 0
		k.Every(500*time.Microsecond, 700*time.Microsecond, func(time.Duration) {
			if held, want := refsHeld(&k.arena), planned-received; held != want {
				t.Errorf("at %v: slots hold %d references for %d outstanding copies", k.Now(), held, want)
			}
			checks++
		})
		live, capacity := -1, 0
		k.ScheduleFunc(100*time.Millisecond, func(time.Duration) { live, capacity = k.arena.live(), k.arena.capacity() })
		k.Run(100 * time.Millisecond)
		if received == 0 || received != planned || checks == 0 {
			t.Errorf("received %d of %d planned copies over %d checks", received, planned, checks)
		}
		if live != 0 {
			t.Errorf("arena retains %d live slots at the end of the run", live)
		}
		// One slot per beat's broadcast, and at most n·6 beats in flight (one
		// per process per 1 ms, latencies up to 5 ms).
		if cap := capacity; cap > msgChunkSize {
			t.Errorf("arena grew to %d slots for at most %d broadcasts in flight", cap, n*6)
		}
	})
}

// TestStepMessageIsPrivate checks that the message a step is handed is its
// own copy: a receiver that overwrites its message does not change what a
// later receiver of the same shared slot sees, through the kind lane or a
// generic matcher, and a step's message is intact after the step's own
// sends.
func TestStepMessageIsPrivate(t *testing.T) {
	const n = 5
	payload := any([]dsys.ProcessID{2})
	k := New(Config{
		N:       n,
		Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
		Seed:    3,
		Trace:   trace.NewCollector(),
	})
	k.Spawn(1, "broadcast", func(p dsys.Proc) {
		for _, q := range p.All()[1:] {
			p.Send(q, "b", payload)
		}
	})
	intact := func(p dsys.Proc, m *dsys.Message) {
		if m.From != 1 || m.To != p.ID() || m.Kind != "b" || m.SentAt != 0 || !samePayload(m.Payload, payload) {
			t.Errorf("p%d received %+v", p.ID(), *m)
		}
	}
	scribble := func(m *dsys.Message) {
		*m = dsys.Message{From: 9, To: 9, Kind: "x", SentAt: time.Hour, Payload: "scribbled"}
	}
	received := 0
	for _, id := range []dsys.ProcessID{2, 3} {
		k.SpawnRecvLoop(id, "scribbler", func(p dsys.Proc, m *dsys.Message) {
			intact(p, m)
			scribble(m)
			received++
		}, "b")
	}
	isB := dsys.MatchFunc(func(m *dsys.Message) bool { return m.Kind == "b" })
	k.SpawnStep(4, "generic", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if m == nil {
			return dsys.Await(isB)
		}
		intact(p, m)
		scribble(m)
		received++
		return dsys.Finished
	})
	k.SpawnStep(5, "sender", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if m == nil {
			return dsys.Await(dsys.MatchKind("b"))
		}
		intact(p, m)
		for _, q := range p.All() {
			p.Send(q, "echo", m.Payload)
			p.Send(q, "c", nil)
		}
		intact(p, m)
		received++
		return dsys.Finished
	})
	k.Run(time.Second)
	if received != n-1 {
		t.Errorf("%d of %d receivers ran", received, n-1)
	}
}
