package live_test

import (
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/trace"
)

// TestDuplicatingNetworkDeliversCopies mirrors the simulator's duplication
// test on the live runtime: a network.MultiNetwork's copies are all
// delivered, into the mailbox or through a transport, and counted as one
// send each.
func TestDuplicatingNetworkDeliversCopies(t *testing.T) {
	const sends = 10
	for _, tc := range []struct {
		name      string
		transport bool
		p         float64
		want      int // deliveries per send
	}{
		{"mailbox P=1", false, 1, 3},
		{"mailbox P=0", false, 0, 1},
		{"transport P=1", true, 1, 3},
		{"transport P=0", true, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := trace.NewCollector()
			cfg := live.Config{N: 2, Seed: 1, Trace: col, Network: network.Duplicating{
				P: tc.p, MaxCopies: 3, Under: network.Reliable{Latency: network.Fixed(time.Millisecond)}}}
			if tc.transport {
				cfg.Transport = &loopback{crashes: make(map[dsys.ProcessID]int)}
			}
			c := live.NewCluster(cfg)
			defer c.Stop()
			c.Spawn(1, "send", func(p dsys.Proc) {
				for i := 0; i < sends; i++ {
					p.Send(2, "m", i)
				}
			})
			want := sends * tc.want
			deadline := time.Now().Add(5 * time.Second)
			for col.Delivered("m") < want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond) // a surplus copy would land by now
			if got := col.Delivered("m"); got != want {
				t.Errorf("delivered %d copies, want exactly %d", got, want)
			}
			if got := col.Sent("m"); got != sends {
				t.Errorf("sent count %d should reflect logical messages, not copies", got)
			}
			if got, wantDups := col.LinkEvents("live.dup"), sends*(tc.want-1); got != wantDups {
				t.Errorf("live.dup = %d, want %d", got, wantDups)
			}
		})
	}
}

// TestStopCancelsDelayedCopies: every delayed copy holds a tracked timer,
// and Stop cancels them all.
func TestStopCancelsDelayedCopies(t *testing.T) {
	c := live.NewCluster(live.Config{N: 2, Network: network.Duplicating{
		P: 1, MaxCopies: 3, Under: network.Reliable{Latency: network.Fixed(time.Hour)}}})
	sent := make(chan struct{})
	c.Spawn(1, "send", func(p dsys.Proc) {
		for i := 0; i < 5; i++ {
			p.Send(2, "m", i)
		}
		close(sent)
	})
	<-sent
	if n := c.PendingDelayTimers(); n != 15 {
		t.Fatalf("%d delay timers pending, want 15 (5 sends × 3 copies)", n)
	}
	c.Stop()
	if n := c.PendingDelayTimers(); n != 0 {
		t.Fatalf("%d delay timers still pending after Stop", n)
	}
}

// recorder is a transport that only remembers the last message it was
// handed; it is touched by the sending task alone.
type recorder struct {
	n    int
	last dsys.Message
}

func (r *recorder) Start(func(*dsys.Message)) {}
func (r *recorder) Send(m dsys.Message)       { r.n, r.last = r.n+1, m }
func (r *recorder) Crash(dsys.ProcessID)      {}
func (r *recorder) Stop()                     {}

// TestTransportWithoutNetworkSendsDirectly guards the live meshes' hot path:
// with a transport and no network model, Send hands the message over before
// it returns, allocates nothing and starts no timer.
func TestTransportWithoutNetworkSendsDirectly(t *testing.T) {
	rec := &recorder{}
	c := live.NewCluster(live.Config{N: 2, Trace: &trace.Collector{}, Transport: rec})
	defer c.Stop()
	var allocs float64
	var handed bool
	done := make(chan struct{})
	c.Spawn(1, "send", func(p dsys.Proc) {
		defer close(done)
		allocs = testing.AllocsPerRun(100, func() { p.Send(2, "k", nil) })
		before := rec.n
		p.Send(2, "k", "v")
		handed = rec.n == before+1 && rec.last.Kind == "k" && rec.last.Payload == "v"
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sender did not finish")
	}
	if allocs != 0 {
		t.Errorf("Send allocated %.1f times per call, want 0", allocs)
	}
	if !handed {
		t.Error("the transport did not have the message when Send returned")
	}
	if n := c.PendingDelayTimers(); n != 0 {
		t.Errorf("%d delay timers pending, want 0", n)
	}
}
