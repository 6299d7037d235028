package rbcast_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/sim"
	"repro/internal/trace"
)

type delivery struct {
	at      dsys.ProcessID // where
	origin  dsys.ProcessID
	payload any
}

type deliveryLog struct {
	mu  sync.Mutex
	all []delivery
}

func (l *deliveryLog) add(d delivery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.all = append(l.all, d)
}

func (l *deliveryLog) at(id dsys.ProcessID) []delivery {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []delivery
	for _, d := range l.all {
		if d.at == id {
			out = append(out, d)
		}
	}
	return out
}

// act builds the steps a process takes with its rbcast module once the
// module is started.
type act func(m *rbcast.Module) dsys.StepFunc

// once is the act that runs f in one step.
func once(f func(p dsys.Proc, m *rbcast.Module)) act {
	return func(m *rbcast.Module) dsys.StepFunc {
		return func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
			f(p, m)
			return dsys.Finished
		}
	}
}

// setup wires n processes with rbcast modules and a delivery log: each
// process's set-up task starts its module and then runs the process's act,
// if it has one, as the rest of the task.
func setup(n int, seed int64, net network.Network, log *deliveryLog, acts map[dsys.ProcessID]act) *sim.Kernel {
	k := sim.New(sim.Config{N: n, Network: net, Seed: seed, Trace: trace.NewCollector()})
	for _, id := range dsys.Pids(n) {
		var steps dsys.StepFunc
		k.SpawnStep(id, "rb-setup", func(p dsys.Proc, msg *dsys.Message) dsys.Wait {
			if steps == nil {
				m := rbcast.Start(p)
				m.OnDeliver(func(p dsys.Proc, origin dsys.ProcessID, payload any) {
					log.add(delivery{at: p.ID(), origin: origin, payload: payload})
				})
				if acts[id] == nil {
					return dsys.Finished
				}
				steps = acts[id](m)
			}
			return steps(p, msg)
		})
	}
	return k
}

func reliable() network.Network {
	return network.Reliable{Latency: network.Fixed(time.Millisecond)}
}

func TestBroadcastReachesEveryoneIncludingSelf(t *testing.T) {
	log := &deliveryLog{}
	k := setup(4, 1, reliable(), log, map[dsys.ProcessID]act{
		1: once(func(p dsys.Proc, m *rbcast.Module) { m.Broadcast(p, "hello") }),
	})
	k.Run(time.Second)
	for _, id := range dsys.Pids(4) {
		ds := log.at(id)
		if len(ds) != 1 || ds[0].payload != "hello" || ds[0].origin != 1 {
			t.Errorf("%v deliveries: %+v", id, ds)
		}
	}
}

func TestUniformIntegrityNoDuplicateDeliveries(t *testing.T) {
	log := &deliveryLog{}
	k := setup(5, 2, reliable(), log, map[dsys.ProcessID]act{
		1: once(func(p dsys.Proc, m *rbcast.Module) {
			for i := 0; i < 10; i++ {
				m.Broadcast(p, i)
			}
		}),
		3: once(func(p dsys.Proc, m *rbcast.Module) {
			m.Broadcast(p, "from-3")
		}),
	})
	k.Run(time.Second)
	for _, id := range dsys.Pids(5) {
		seen := map[string]int{}
		for _, d := range log.at(id) {
			seen[fmt.Sprint(d.origin, "/", d.payload)]++
		}
		if len(seen) != 11 {
			t.Errorf("%v delivered %d distinct messages, want 11", id, len(seen))
		}
		for k, c := range seen {
			if c != 1 {
				t.Errorf("%v delivered %s %d times", id, k, c)
			}
		}
	}
}

func TestAgreementWhenOriginReachesOnePeer(t *testing.T) {
	// The origin's copies reach only p2 (per-link loss of the rest): whoever
	// received it must relay so that every correct process delivers. In the
	// first case the origin crashed mid-broadcast; in the second it lives on
	// behind fair-lossy links that ate all but one copy. The origin itself
	// never relays, so in both it is p2's relay alone that carries the
	// message to p3, p4 and p5.
	net := network.PerLink{
		Default: reliable(),
		Links: map[network.LinkKey]network.Network{
			{From: 1, To: 3}: network.FairLossy{P: 1.0, Under: reliable()},
			{From: 1, To: 4}: network.FairLossy{P: 1.0, Under: reliable()},
			{From: 1, To: 5}: network.FairLossy{P: 1.0, Under: reliable()},
		},
	}
	for _, originCrashes := range []bool{true, false} {
		log := &deliveryLog{}
		k := setup(5, 3, net, log, map[dsys.ProcessID]act{
			1: once(func(p dsys.Proc, m *rbcast.Module) { m.Broadcast(p, "contagious") }),
		})
		if originCrashes {
			k.CrashAt(1, 5*time.Millisecond)
		}
		k.Run(time.Second)
		for _, id := range []dsys.ProcessID{2, 3, 4, 5} {
			if ds := log.at(id); len(ds) != 1 {
				t.Errorf("origin crashes=%v: %v delivered %d times, want 1 (via relay)", originCrashes, id, len(ds))
			}
		}
	}
}

// TestBroadcastCostsNMinusOneSquared: the origin sends n−1 copies and does
// not relay; each of the n−1 receivers relays to the n−2 processes that are
// neither itself nor the sender. (n−1) + (n−1)(n−2) = (n−1)² messages cross
// the network, and the self-addressed copy is the origin's own delivery.
func TestBroadcastCostsNMinusOneSquared(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7} {
		col := trace.NewCollector()
		k := sim.New(sim.Config{N: n, Network: reliable(), Seed: 1, Trace: col})
		delivered := 0
		for _, id := range dsys.Pids(n) {
			id := id
			k.Spawn(id, "rb", func(p dsys.Proc) {
				m := rbcast.Start(p)
				m.OnDeliver(func(dsys.Proc, dsys.ProcessID, any) { delivered++ })
				if id == 2 {
					m.Broadcast(p, "once")
				}
			})
		}
		k.Run(time.Second)
		remote := 0
		for _, e := range col.Events() {
			if e.Kind == rbcast.Kind && e.From != e.To {
				remote++
			}
		}
		if remote != (n-1)*(n-1) || delivered != n {
			t.Errorf("n=%d: %d remote %s and %d deliveries, want %d and %d", n, remote, rbcast.Kind, delivered, (n-1)*(n-1), n)
		}
	}
}

func TestHandlerCancellation(t *testing.T) {
	log := &deliveryLog{}
	var cancels []func()
	k := setup(3, 4, reliable(), log, map[dsys.ProcessID]act{
		2: once(func(p dsys.Proc, m *rbcast.Module) {
			// A second handler that must never fire once cancelled.
			cancel := m.OnDeliver(func(p dsys.Proc, origin dsys.ProcessID, payload any) {
				t.Errorf("cancelled handler fired with %v", payload)
			})
			cancels = append(cancels, cancel)
			cancel()
		}),
		1: func(m *rbcast.Module) dsys.StepFunc {
			slept := false
			return func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
				if !slept {
					slept = true
					return dsys.Sleep(10 * time.Millisecond)
				}
				m.Broadcast(p, "late")
				return dsys.Finished
			}
		},
	})
	k.Run(time.Second)
	if len(log.at(2)) != 1 {
		t.Error("base handler should still deliver")
	}
}

// TestManyOriginsInterleaved: every origin broadcasts over links that
// reorder, everyone delivers everything once, and what each module keeps to
// guarantee that is one run of sequence numbers per origin — the gaps
// reordering opened have all closed.
func TestManyOriginsInterleaved(t *testing.T) {
	log := &deliveryLog{}
	acts := map[dsys.ProcessID]act{}
	n := 6
	mods := map[dsys.ProcessID]*rbcast.Module{}
	for _, id := range dsys.Pids(n) {
		acts[id] = func(m *rbcast.Module) dsys.StepFunc {
			mods[id] = m
			i := 0
			return func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
				if i == 5 {
					return dsys.Finished
				}
				m.Broadcast(p, fmt.Sprintf("%v-%d", id, i))
				i++
				return dsys.Sleep(time.Duration(1+int(id)) * time.Millisecond)
			}
		}
	}
	k := setup(n, 5, network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond}}, log, acts)
	k.Run(time.Second)
	for _, id := range dsys.Pids(n) {
		if got := len(log.at(id)); got != n*5 {
			t.Errorf("%v delivered %d, want %d", id, got, n*5)
		}
		if runs, sources := mods[id].DeliveredRuns(); runs != n || sources != n {
			t.Errorf("%v keeps %d delivered runs over %d sources, want one run per origin (%d)", id, runs, sources, n)
		}
	}
}

func TestForeignHandlePanics(t *testing.T) {
	k := sim.New(sim.Config{N: 2, Network: reliable(), Seed: 6})
	var m1 *rbcast.Module
	k.Spawn(1, "a", func(p dsys.Proc) { m1 = rbcast.Start(p) })
	k.ScheduleFunc(time.Millisecond, func(time.Duration) {
		k.Spawn(2, "b", func(p dsys.Proc) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for foreign task handle")
				}
			}()
			m1.Broadcast(p, "bad")
		})
	})
	k.Run(10 * time.Millisecond)
}

func TestRestartedOriginNotDeduplicated(t *testing.T) {
	// A process that crashes and restarts re-issues sequence numbers from 1
	// under a fresh incarnation stamp. Its peers, still holding the old
	// life's delivered set, must deliver the new life's broadcasts — before
	// Wire carried Inc they were dropped as duplicates, and (in the live
	// cluster) every decision a restarted coordinator broadcast reached its
	// followers only via consensus probe timeouts. Process 1 plays both of
	// its lives by injecting raw envelopes: same Origin and Seq, different
	// Inc. Duplicates within one life must still be suppressed.
	log := &deliveryLog{}
	k := sim.New(sim.Config{N: 3, Network: reliable(), Seed: 9})
	mods := map[dsys.ProcessID]*rbcast.Module{}
	for _, id := range []dsys.ProcessID{2, 3} {
		id := id
		k.Spawn(id, "rb", func(p dsys.Proc) {
			m := rbcast.Start(p)
			mods[id] = m
			m.OnDeliver(func(p dsys.Proc, origin dsys.ProcessID, payload any) {
				log.add(delivery{at: p.ID(), origin: origin, payload: payload})
			})
		})
	}
	send := func(p dsys.Proc, w rbcast.Wire) {
		for _, q := range []dsys.ProcessID{2, 3} {
			p.Send(q, rbcast.Kind, w)
		}
	}
	k.Spawn(1, "first-life", func(p dsys.Proc) {
		send(p, rbcast.Wire{Origin: 1, Inc: 100, Seq: 1, Payload: "first-life"})
	})
	k.ScheduleFunc(10*time.Millisecond, func(time.Duration) {
		k.Spawn(1, "second-life", func(p dsys.Proc) {
			send(p, rbcast.Wire{Origin: 1, Inc: 100, Seq: 1, Payload: "first-life"}) // retransmission: a duplicate
			send(p, rbcast.Wire{Origin: 1, Inc: 200, Seq: 1, Payload: "second-life"})
		})
	})
	k.Run(time.Second)
	for _, id := range []dsys.ProcessID{2, 3} {
		var got []any
		for _, d := range log.at(id) {
			got = append(got, d.payload)
		}
		if len(got) != 2 || got[0] != "first-life" || got[1] != "second-life" {
			t.Errorf("%v delivered %v, want [first-life second-life]", id, got)
		}
		if runs, sources := mods[id].DeliveredRuns(); runs != 2 || sources != 2 {
			t.Errorf("%v keeps %d delivered runs over %d sources, want one run per life (2)", id, runs, sources)
		}
	}
}
