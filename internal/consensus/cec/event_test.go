package cec_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestProposeReturnsAtRDelivery: with 1 ms links, a stable leader and Poll
// set to a whole second, every Propose returns at the instant its process
// R-delivers the decision — the coordinator's at 4 ms (announce, estimate,
// propose, ack), the participants' one hop later — and the coordinator,
// having R-broadcast, opens no second round. Before R-delivery woke the
// waiting Propose, participants returned at their next poll and the
// coordinator announced round 2 to an instance that was already decided.
func TestProposeReturnsAtRDelivery(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		c := fdtest.NewCluster(n, 1)
		returned := map[dsys.ProcessID]time.Duration{}
		res := conslab.Run(conslab.Setup{
			N:    n,
			Seed: 1,
			Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Opt:  consensus.Options{Poll: time.Second},
			Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
				r := cec.Propose(p, c.At(p.ID()), rb, v, opt)
				returned[p.ID()] = p.Now()
				return r
			},
			RunFor: 10 * time.Second,
		})
		if err := res.Verify(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, id := range dsys.Pids(n) {
			d, _ := res.Log.Decided(id)
			want := 5 * time.Millisecond
			if id == 1 {
				want = 4 * time.Millisecond
			}
			if d.At != want || returned[id] != want {
				t.Errorf("n=%d: %v R-delivered at %v and returned at %v, want both %v", n, id, d.At, returned[id], want)
			}
		}
		for _, e := range res.Messages.Events() {
			if env, ok := e.Payload.(consensus.Msg); ok && env.Round > 1 {
				t.Errorf("n=%d: %v sent %s for round %d after deciding in round 1", n, e.From, e.Kind, env.Round)
			}
			if e.Kind == cec.KindDecided && e.From != e.To {
				t.Errorf("n=%d: %v sent a KindDecided to %v; the R-delivery wake-up must stay local", n, e.From, e.To)
			}
		}
	}
}

// TestSequentialInstancesLeaveNoMessages runs 200 instances one after the
// other on the same processes and then sweeps every mailbox: nothing may be
// left in it. With per-instance responders those take whatever arrives after
// the decision (including an R-delivery wake-up nobody waited for any more);
// with NoResponder there must be nothing to take in a fault-free run, and
// Propose must not have spawned anything.
func TestSequentialInstancesLeaveNoMessages(t *testing.T) {
	const n, instances = 3, 200
	for _, noResponder := range []bool{false, true} {
		col := trace.NewCollector()
		k := sim.New(sim.Config{N: n, Network: network.Reliable{Latency: network.Fixed(time.Millisecond)}, Seed: 1, Trace: col})
		c := fdtest.NewCluster(n, 1)
		decided := map[dsys.ProcessID]int{}
		left := map[dsys.ProcessID]int{}
		spawned := map[dsys.ProcessID]int{}
		var lastAt time.Duration
		for _, id := range dsys.Pids(n) {
			id := id
			k.Spawn(id, "consensus", func(p dsys.Proc) {
				rb := rbcast.Start(p)
				cp := spawnCounter{Proc: p, n: new(int)}
				for i := 0; i < instances; i++ {
					opt := consensus.Options{Instance: fmt.Sprintf("i%d", i), Poll: time.Second, NoResponder: noResponder}
					res := cec.Propose(cp, c.At(id), rb, fmt.Sprintf("v%d-%d", id, i), opt)
					if res.Value != fmt.Sprintf("v1-%d", i) {
						t.Errorf("%v decided %v in instance %d, want the leader's proposal", id, res.Value, i)
					}
					decided[id]++
					lastAt = p.Now()
				}
				spawned[id] = *cp.n
				p.Sleep(time.Second)
				for {
					if _, ok := p.RecvTimeout(dsys.MatchAny, 0); !ok {
						return
					}
					left[id]++
				}
			})
		}
		k.Run(time.Minute)
		for _, id := range dsys.Pids(n) {
			if decided[id] != instances {
				t.Fatalf("NoResponder=%v: %v decided %d of %d instances", noResponder, id, decided[id], instances)
			}
			if left[id] != 0 {
				t.Errorf("NoResponder=%v: %v has %d messages left in its mailbox after %d instances", noResponder, id, left[id], instances)
			}
			want := instances // one cec-responder per instance, by design
			if noResponder {
				want = 0
			}
			if spawned[id] != want {
				t.Errorf("NoResponder=%v: Propose spawned %d tasks at %v, want %d", noResponder, spawned[id], id, want)
			}
		}
		// 200 instances of five link delays each: no step waited for the poll.
		if lastAt > time.Duration(instances)*6*time.Millisecond {
			t.Errorf("NoResponder=%v: the last instance decided at %v: some step waited for a timer", noResponder, lastAt)
		}
	}
}

// spawnCounter counts the tasks spawned through it.
type spawnCounter struct {
	dsys.Proc
	n *int
}

func (sc spawnCounter) Spawn(name string, fn dsys.TaskFunc) {
	*sc.n++
	sc.Proc.Spawn(name, fn)
}
