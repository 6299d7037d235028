package tcpnet_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/ring"
	"repro/internal/rbcast"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

func TestPingPongOverTCP(t *testing.T) {
	m, err := tcpnet.New(tcpnet.Config{N: 2, Trace: trace.NewCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	done := make(chan string, 1)
	m.Spawn(2, "echo", func(p dsys.Proc) {
		for {
			msg, _ := p.Recv(dsys.MatchKind("ping"))
			p.Send(msg.From, "pong", msg.Payload)
		}
	})
	m.Spawn(1, "client", func(p dsys.Proc) {
		p.Send(2, "ping", "hello-over-tcp")
		msg, _ := p.Recv(dsys.MatchKind("pong"))
		done <- msg.Payload.(string)
	})
	select {
	case got := <-done:
		if got != "hello-over-tcp" {
			t.Errorf("got %q", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out")
	}
}

// custom is an application payload type: it crosses the mesh because the
// application registers an encode/decode pair for it with package wire.
type custom struct {
	A int
	B string
	C []dsys.ProcessID
}

func TestRegisteredCustomPayloadOverTCP(t *testing.T) {
	wire.Register(custom{},
		func(e *wire.Encoder, v any) {
			c := v.(custom)
			e.Varint(int64(c.A))
			e.String(c.B)
			e.Value(c.C)
		},
		func(d *wire.Decoder) any {
			c := custom{A: d.Int(), B: d.String()}
			c.C, _ = d.Value().([]dsys.ProcessID)
			return c
		})
	m, err := tcpnet.New(tcpnet.Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	done := make(chan custom, 1)
	m.Spawn(2, "recv", func(p dsys.Proc) {
		msg, _ := p.Recv(dsys.MatchKind("c"))
		done <- msg.Payload.(custom)
	})
	want := custom{A: 7, B: "x", C: []dsys.ProcessID{3, 1}}
	m.Spawn(1, "send", func(p dsys.Proc) { p.Send(2, "c", want) })
	select {
	case got := <-done:
		if !reflect.DeepEqual(got, want) {
			t.Errorf("payload mangled: %+v, want %+v", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out")
	}
}

func TestCrashSilencesPeerOverTCP(t *testing.T) {
	m, err := tcpnet.New(tcpnet.Config{N: 2, Trace: trace.NewCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	got := make(chan int, 100)
	m.Spawn(2, "count", func(p dsys.Proc) {
		for {
			msg, _ := p.Recv(dsys.MatchKind("n"))
			got <- msg.Payload.(int)
		}
	})
	m.Spawn(1, "send", func(p dsys.Proc) {
		for i := 0; ; i++ {
			p.Send(2, "n", i)
			p.Sleep(5 * time.Millisecond)
		}
	})
	time.Sleep(50 * time.Millisecond)
	m.Crash(1)
	// Drain whatever arrived, then verify silence.
	deadline := time.After(200 * time.Millisecond)
	count := 0
drain:
	for {
		select {
		case <-got:
			count++
		case <-deadline:
			break drain
		}
	}
	if count == 0 {
		t.Fatal("nothing arrived before the crash")
	}
	select {
	case <-got:
		t.Fatal("message arrived after the sender crashed")
	case <-time.After(100 * time.Millisecond):
	}
}

// The flagship test: the paper's full stack — ring ◇C detector, reliable
// broadcast, ◇C consensus — over real TCP sockets, with a crash.
func TestConsensusOverTCP(t *testing.T) {
	n := 5
	m, err := tcpnet.New(tcpnet.Config{N: n, Trace: trace.NewCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	results := make(chan consensus.Result, n)
	for _, id := range dsys.Pids(n) {
		id := id
		m.Spawn(id, "main", func(p dsys.Proc) {
			det := ring.Start(p, ring.Options{Period: 5 * time.Millisecond})
			rb := rbcast.Start(p)
			results <- cec.Propose(p, det, rb, "v-"+id.String(), consensus.Options{Poll: 2 * time.Millisecond})
		})
	}
	time.Sleep(10 * time.Millisecond)
	m.Crash(4)
	var decided []consensus.Result
	timeout := time.After(30 * time.Second)
	for len(decided) < n-1 {
		select {
		case r := <-results:
			decided = append(decided, r)
		case <-timeout:
			t.Fatalf("only %d of %d correct processes decided over TCP", len(decided), n-1)
		}
	}
	for _, r := range decided[1:] {
		if r.Value != decided[0].Value {
			t.Fatalf("agreement violated over TCP: %v vs %v", r.Value, decided[0].Value)
		}
	}
}

// Replicated log over TCP: commands are ordered identically at every
// replica through real sockets.
func TestReplicatedLogOverTCP(t *testing.T) {
	n := 3
	m, err := tcpnet.New(tcpnet.Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	var repsMu sync.Mutex
	reps := make(map[dsys.ProcessID]*core.Replica)
	getRep := func(id dsys.ProcessID) *core.Replica {
		repsMu.Lock()
		defer repsMu.Unlock()
		return reps[id]
	}
	ready := make(chan struct{}, n)
	for _, id := range dsys.Pids(n) {
		id := id
		m.Spawn(id, "replica", func(p dsys.Proc) {
			r := core.StartReplica(p, core.Config{
				Detector:  ring.Start(p, ring.Options{Period: 5 * time.Millisecond}),
				Consensus: consensus.Options{Poll: 2 * time.Millisecond},
			})
			repsMu.Lock()
			reps[id] = r
			repsMu.Unlock()
			ready <- struct{}{}
			p.Sleep(time.Hour)
		})
	}
	for i := 0; i < n; i++ {
		<-ready
	}
	getRep(1).Submit("a")
	getRep(2).Submit("b")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if len(getRep(3).AppliedValues()) >= 2 && len(getRep(1).AppliedValues()) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("log did not converge: p1=%v p3=%v", getRep(1).AppliedValues(), getRep(3).AppliedValues())
		}
		time.Sleep(10 * time.Millisecond)
	}
	a, b := getRep(1).AppliedValues(), getRep(3).AppliedValues()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("logs diverge over TCP: %v vs %v", a, b)
		}
	}
}
