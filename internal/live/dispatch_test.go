package live_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/sim"
)

// dispatchScript is one process's parked receivers, in spawn order, and the
// messages delivered to it one at a time once all of them are parked.
type dispatchScript struct {
	recvs []scriptRecv
	msgs  []scriptMsg
}

type scriptRecv struct {
	name    string
	match   dsys.Matcher
	timeout time.Duration // RecvTimeout when positive, else Recv
}

type scriptMsg struct {
	kind string
	id   int
}

// wait is the receiver's one wait: dsys.RunSteps turns it into the
// receive on live.
func (r scriptRecv) wait() dsys.Wait {
	if r.timeout > 0 {
		return dsys.AwaitTimeout(r.match, r.timeout)
	}
	return dsys.Await(r.match)
}

// step is the receiver as a step task: one wait, and got records the
// message that ended it.
func (r scriptRecv) step(got func(name string, m *dsys.Message)) dsys.StepFunc {
	waited := false
	return func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if !waited {
			waited = true
			return r.wait()
		}
		if m != nil {
			got(r.name, m)
		}
		return dsys.Finished
	}
}

// testScript has two parked receivers accepting the first delivery and a
// message no receiver wants, so a broadcast mailbox would leave the
// assignment to the scheduler.
func testScript() dispatchScript {
	return dispatchScript{
		recvs: []scriptRecv{
			{name: "b-only", match: dsys.MatchKind("b")},
			{name: "a-or-b", match: dsys.MatchFunc(func(m *dsys.Message) bool { return m.Kind == "a" || m.Kind == "b" })},
			{name: "a-timed", match: dsys.MatchKind("a"), timeout: time.Hour},
			{name: "any", match: dsys.MatchAny},
		},
		msgs: []scriptMsg{{"a", 1}, {"a", 2}, {"b", 3}, {"c", 4}, {"a", 5}},
	}
}

// runScriptSim runs the script on the simulator, each receiver as a step
// task: process 2 sends the messages to process 1 a millisecond apart.
func runScriptSim(sc dispatchScript) map[string]int {
	k := sim.New(sim.Config{N: 2, Network: network.Reliable{Latency: network.Fixed(time.Millisecond)}})
	got := map[string]int{}
	for _, r := range sc.recvs {
		k.SpawnStep(1, r.name, r.step(func(name string, m *dsys.Message) { got[name] = m.Payload.(int) }))
	}
	sent := 0
	k.SpawnStep(2, "sender", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
		if sent > 0 {
			m := sc.msgs[sent-1]
			p.Send(1, m.kind, m.id)
		}
		if sent == len(sc.msgs) {
			return dsys.Finished
		}
		sent++
		return dsys.Sleep(time.Millisecond)
	})
	k.Run(time.Second)
	return got
}

// runScriptLive runs the script on a live cluster, injecting each message
// only after every receiver has parked. It also reports the final backlog.
func runScriptLive(t *testing.T, sc dispatchScript) (map[string]int, int) {
	c := live.NewCluster(live.Config{N: 1, Network: fastNet()})
	defer c.Stop()
	var mu sync.Mutex
	got := map[string]int{}
	for _, r := range sc.recvs {
		step := r.step(func(name string, m *dsys.Message) {
			mu.Lock()
			got[name] = m.Payload.(int)
			mu.Unlock()
		})
		c.Spawn(1, r.name, func(p dsys.Proc) { dsys.RunSteps(p, step) })
	}
	waitFor(t, "receivers to park", func() bool {
		_, parked := c.Mailbox(1)
		return parked == len(sc.recvs)
	})
	for _, m := range sc.msgs {
		c.Inject(&dsys.Message{From: 1, To: 1, Kind: m.kind, Payload: m.id})
	}
	waitFor(t, "receivers to record their messages", func() bool {
		_, parked := c.Mailbox(1)
		mu.Lock()
		defer mu.Unlock()
		return parked == 0 && len(got) == len(sc.recvs)
	})
	backlog, _ := c.Mailbox(1)
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]int, len(got))
	for k, v := range got {
		out[k] = v
	}
	return out, backlog
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestDispatchMatchesSimulator runs one script of parked matchers and
// deliveries on both runtimes: each delivery must go to the earliest-spawned
// parked task whose matcher accepts it, on live exactly as on the simulator.
func TestDispatchMatchesSimulator(t *testing.T) {
	sc := testScript()
	want := map[string]int{"a-or-b": 1, "a-timed": 2, "b-only": 3, "any": 4}
	simGot := runScriptSim(sc)
	if len(simGot) != len(want) {
		t.Fatalf("sim assignment %v, want %v", simGot, want)
	}
	for name, id := range want {
		if simGot[name] != id {
			t.Fatalf("sim assignment %v, want %v", simGot, want)
		}
	}
	for i := 0; i < 20; i++ {
		liveGot, backlog := runScriptLive(t, sc)
		for name, id := range want {
			if liveGot[name] != id {
				t.Fatalf("run %d: live assignment %v, sim assignment %v", i, liveGot, simGot)
			}
		}
		if backlog != 1 {
			t.Fatalf("run %d: backlog %d after the script, want the one unmatched message", i, backlog)
		}
	}
}

// TestRecvTimeoutHandOffStress races short RecvTimeout deadlines against
// concurrent Injects: whichever way each hand-off/deadline race resolves,
// every message must be received exactly once.
func TestRecvTimeoutHandOffStress(t *testing.T) {
	const (
		receivers   = 4
		injectors   = 4
		perInjector = 2000
		total       = injectors * perInjector
	)
	c := live.NewCluster(live.Config{N: 1, Network: fastNet()})
	defer c.Stop()
	seen := make([]atomic.Int32, total)
	var received atomic.Int64
	finished := make(chan struct{}, receivers)
	for i := 0; i < receivers; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		c.Spawn(1, "recv", func(p dsys.Proc) {
			defer func() { finished <- struct{}{} }()
			match := dsys.MatchKind("x")
			for received.Load() < total {
				d := time.Duration(1+rng.Intn(50)) * time.Microsecond
				if m, ok := p.RecvTimeout(match, d); ok {
					seen[m.Payload.(int)].Add(1)
					received.Add(1)
				}
			}
		})
	}
	for j := 0; j < injectors; j++ {
		go func(base int) {
			// Paced so that deliveries land on parked receivers as well as in
			// the buffer, and near their deadlines.
			for i := 0; i < perInjector; i++ {
				c.Inject(&dsys.Message{From: 1, To: 1, Kind: "x", Payload: base + i})
				if i%4 == 0 {
					time.Sleep(time.Duration(i%50) * time.Microsecond)
				}
			}
		}(j * perInjector)
	}
	timeout := time.After(60 * time.Second)
	for i := 0; i < receivers; i++ {
		select {
		case <-finished:
		case <-timeout:
			t.Fatalf("%d of %d messages received before the deadline: a hand-off was lost", received.Load(), total)
		}
	}
	for id := range seen {
		if n := seen[id].Load(); n != 1 {
			t.Fatalf("message %d received %d times", id, n)
		}
	}
}

// TestRecvTimeoutZeroAllocatesNothing: a zero-timeout poll of an empty
// mailbox starts no timer and allocates nothing.
func TestRecvTimeoutZeroAllocatesNothing(t *testing.T) {
	c := live.NewCluster(live.Config{N: 1, Network: fastNet()})
	defer c.Stop()
	res := make(chan float64, 1)
	c.Spawn(1, "poll", func(p dsys.Proc) {
		match := dsys.MatchKind("never")
		res <- testing.AllocsPerRun(200, func() { p.RecvTimeout(match, 0) })
	})
	if allocs := <-res; allocs != 0 {
		t.Errorf("RecvTimeout(m, 0) on an empty mailbox: %v allocs, want 0", allocs)
	}
}
