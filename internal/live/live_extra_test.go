package live_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/trace"
)

func TestInjectDeliversDirectly(t *testing.T) {
	c := live.NewCluster(live.Config{N: 2, Network: fastNet()})
	defer c.Stop()
	done := make(chan any, 1)
	c.Spawn(2, "recv", func(p dsys.Proc) {
		m, _ := p.Recv(dsys.MatchKind("injected"))
		done <- m.Payload
	})
	time.Sleep(5 * time.Millisecond)
	c.Inject(&dsys.Message{From: 1, To: 2, Kind: "injected", Payload: 99})
	select {
	case got := <-done:
		if got != 99 {
			t.Errorf("payload %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inject not delivered")
	}
}

func TestInjectToCrashedIsDropped(t *testing.T) {
	c := live.NewCluster(live.Config{N: 2, Network: fastNet(), Trace: trace.NewCollector()})
	defer c.Stop()
	c.Crash(2)
	c.Inject(&dsys.Message{From: 1, To: 2, Kind: "late", Payload: nil}) // must not panic or deliver
}

func TestCrashIsIdempotent(t *testing.T) {
	c := live.NewCluster(live.Config{N: 1, Network: fastNet()})
	defer c.Stop()
	c.Crash(1)
	c.Crash(1) // second call must not close(done) twice
	if !c.Crashed(1) {
		t.Error("not crashed")
	}
}

func TestSpawnAfterCrashDoesNotRun(t *testing.T) {
	c := live.NewCluster(live.Config{N: 1, Network: fastNet()})
	defer c.Stop()
	c.Crash(1)
	var ran atomic.Bool
	c.Spawn(1, "zombie", func(p dsys.Proc) {
		// The first primitive must unwind us.
		p.Sleep(time.Millisecond)
		ran.Store(true)
	})
	time.Sleep(50 * time.Millisecond)
	if ran.Load() {
		t.Error("task of a crashed process ran past its first primitive")
	}
}

// loopback is the smallest live.Transport: Send injects the message straight
// back into the cluster. It records what reached it.
type loopback struct {
	inject func(*dsys.Message)

	mu      sync.Mutex
	kinds   []string
	crashes map[dsys.ProcessID]int
	stops   int
}

func (l *loopback) Start(inject func(*dsys.Message)) { l.inject = inject }

func (l *loopback) Send(m dsys.Message) {
	l.mu.Lock()
	l.kinds = append(l.kinds, m.Kind)
	l.mu.Unlock()
	l.inject(&m)
}

func (l *loopback) Crash(id dsys.ProcessID) {
	l.mu.Lock()
	l.crashes[id]++
	l.mu.Unlock()
}

func (l *loopback) Stop() {
	l.mu.Lock()
	l.stops++
	l.mu.Unlock()
}

// TestTransportHookReceivesNonSelfSends: the transport carries every
// non-self send and no self-send, hears each crash and the stop exactly
// once however often they are called, and hears no crash after the stop.
func TestTransportHookReceivesNonSelfSends(t *testing.T) {
	tr := &loopback{crashes: make(map[dsys.ProcessID]int)}
	c := live.NewCluster(live.Config{N: 3, Transport: tr})
	defer c.Stop()
	done := make(chan struct{})
	c.Spawn(2, "recv", func(p dsys.Proc) {
		p.Recv(dsys.MatchKind("via-transport"))
		close(done)
	})
	c.Spawn(1, "send", func(p dsys.Proc) {
		p.Send(1, "self", nil) // self-sends bypass the transport
		p.Send(2, "via-transport", nil)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("transport did not deliver")
	}
	c.Crash(3)
	c.Crash(3)
	c.Stop()
	c.Stop()
	c.Crash(2) // after Stop: the transport is already closed

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.kinds) != 1 || tr.kinds[0] != "via-transport" {
		t.Errorf("transport carried %q, want exactly the one non-self send", tr.kinds)
	}
	if len(tr.crashes) != 1 || tr.crashes[3] != 1 {
		t.Errorf("transport crashes %v, want p3 exactly once", tr.crashes)
	}
	if tr.stops != 1 {
		t.Errorf("transport stopped %d times, want 1", tr.stops)
	}
}

// TestInjectOutOfRangeIsDropped: Inject is where every delivery path ends,
// so a destination that does not exist is dropped there, not a panic.
func TestInjectOutOfRangeIsDropped(t *testing.T) {
	col := trace.NewCollector()
	c := live.NewCluster(live.Config{N: 2, Network: fastNet(), Trace: col})
	defer c.Stop()
	for _, to := range []dsys.ProcessID{0, -1, 3, 99} {
		c.Inject(&dsys.Message{From: 1, To: to, Kind: "stray"})
	}
	if n := col.Delivered("stray"); n != 0 {
		t.Errorf("%d out-of-range messages delivered", n)
	}
}

func TestNowIsMonotonic(t *testing.T) {
	c := live.NewCluster(live.Config{N: 1, Network: fastNet()})
	defer c.Stop()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	if b := c.Now(); b <= a {
		t.Errorf("Now not monotonic: %v then %v", a, b)
	}
}

func TestRandIsUsableConcurrently(t *testing.T) {
	c := live.NewCluster(live.Config{N: 1, Network: fastNet(), Seed: 5})
	defer c.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		c.Spawn(1, "rand", func(p dsys.Proc) {
			defer wg.Done()
			r := p.Rand()
			s := 0
			for j := 0; j < 1000; j++ {
				s += r.Intn(10)
			}
			if s == 0 {
				t.Error("suspicious zero sum")
			}
		})
	}
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("rand tasks hung")
	}
}
