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
// set to a whole second, every Proposal finishes at the instant its process
// R-delivers the decision — the coordinator's at 4 ms (announce, estimate,
// propose, ack), the participants' one hop later — and the coordinator,
// having R-broadcast, opens no second round. Before R-delivery woke the
// waiting instance, participants finished at their next poll and the
// coordinator announced round 2 to an instance that was already decided.
func TestProposeReturnsAtRDelivery(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		c := fdtest.NewCluster(n, 1)
		timers := map[dsys.ProcessID]*timed{}
		res := conslab.Run(conslab.Setup{
			N:    n,
			Seed: 1,
			Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Opt:  consensus.Options{Poll: time.Second},
			Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal {
				pr := &timed{Proposal: cecAlgo.Scripted(c)(p, rb, v, opt)}
				timers[p.ID()] = pr
				return pr
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
			if d.At != want || timers[id].done != want {
				t.Errorf("n=%d: %v R-delivered at %v and finished at %v, want both %v", n, id, d.At, timers[id].done, want)
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
// the instances must not have spawned anything.
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
			// One step task per process runs the instances one after the
			// other, sleeps a second and then takes whatever is buffered.
			var rb *rbcast.Module
			var pr *cec.Proposal
			i, sweeping, count := 0, false, new(int)
			k.SpawnStep(id, "consensus", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
				switch {
				case rb == nil:
					rb = rbcast.Start(p)
				case sweeping:
					if m == nil {
						return dsys.Finished
					}
					left[id]++
					return dsys.AwaitTimeout(dsys.MatchAny, 0)
				case i == instances: // the second has passed
					sweeping = true
					return dsys.AwaitTimeout(dsys.MatchAny, 0)
				}
				cp := spawnCounter{Proc: p, n: count}
				for ; i < instances; i++ {
					if pr == nil {
						opt := consensus.Options{Instance: fmt.Sprintf("i%d", i), Poll: time.Second, NoResponder: noResponder}
						pr, m = cec.NewProposal(c.At(id), rb, fmt.Sprintf("v%d-%d", id, i), opt), nil
					}
					if w := pr.Step(cp, m); !w.Done() {
						return w
					}
					if res, _ := pr.Result(); res.Value != fmt.Sprintf("v1-%d", i) {
						t.Errorf("%v decided %v in instance %d, want the leader's proposal", id, res.Value, i)
					}
					decided[id]++
					lastAt = p.Now()
					pr = nil
				}
				spawned[id] = *count
				return dsys.Sleep(time.Second)
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
				t.Errorf("NoResponder=%v: the instances spawned %d tasks at %v, want %d", noResponder, spawned[id], id, want)
			}
		}
		// 200 instances of five link delays each: no step waited for the poll.
		if lastAt > time.Duration(instances)*6*time.Millisecond {
			t.Errorf("NoResponder=%v: the last instance decided at %v: some step waited for a timer", noResponder, lastAt)
		}
	}
}

// spawnCounter counts the step tasks spawned through it.
type spawnCounter struct {
	dsys.Proc
	n *int
}

func (sc spawnCounter) SpawnStep(name string, step dsys.StepFunc) {
	*sc.n++
	dsys.SpawnStep(sc.Proc, name, step)
}

// timed wraps a Proposal: it sleeps delay before the Proposal's first step
// and records in done the time the Proposal finished.
type timed struct {
	consensus.Proposal
	delay time.Duration
	done  time.Duration
}

func (t *timed) Step(p dsys.Proc, m *dsys.Message) dsys.Wait {
	if t.delay > 0 {
		d := t.delay
		t.delay = 0
		return dsys.Sleep(d)
	}
	w := t.Proposal.Step(p, m)
	if w.Done() {
		t.done = p.Now()
	}
	return w
}
