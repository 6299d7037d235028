package live_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/tcpnet"
)

// TestDrainedMailboxGivesBackItsFlood floods a process's mailbox with no
// receiver waiting, then drains it: the drained mailbox keeps at most
// live.MailboxKeep of capacity instead of the array the flood grew.
func TestDrainedMailboxGivesBackItsFlood(t *testing.T) {
	const flood = 10_000
	c := live.NewCluster(live.Config{N: 2})
	defer c.Stop()
	for i := 0; i < flood; i++ {
		c.Inject(&dsys.Message{From: 2, To: 1, Kind: "flood"})
	}
	peak := c.MailboxCap(1)
	if peak <= live.MailboxKeep {
		t.Fatalf("the flood grew the mailbox to %d, not past the floor %d", peak, live.MailboxKeep)
	}
	done := make(chan struct{})
	c.Spawn(1, "drain", func(p dsys.Proc) {
		defer close(done)
		for i := 0; i < flood; i++ {
			p.Recv(dsys.MatchKind("flood"))
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the receiver did not drain the flood")
	}
	if backlog, _ := c.Mailbox(1); backlog != 0 {
		t.Fatalf("backlog %d after the drain", backlog)
	}
	if got := c.MailboxCap(1); got > live.MailboxKeep {
		t.Errorf("drained mailbox keeps capacity %d (peak %d), want at most %d", got, peak, live.MailboxKeep)
	}
}

// TestStopDropsMailboxes: a stopped cluster keeps no process's mailbox, as
// a crashed process keeps none, even when messages were buffered.
func TestStopDropsMailboxes(t *testing.T) {
	c := live.NewCluster(live.Config{N: 3})
	for _, id := range dsys.Pids(3) {
		for i := 0; i < 100; i++ {
			c.Inject(&dsys.Message{From: 1, To: id, Kind: "unread"})
		}
	}
	c.Stop()
	for _, id := range dsys.Pids(3) {
		if got := c.MailboxCap(id); got != 0 {
			t.Errorf("p%d keeps a mailbox of capacity %d after Stop", id, got)
		}
	}
}

// TestMeshSeedsNoSourceUntilDrawn: a TCP mesh with no network model plans
// no send, so it seeds no random source while messages flow; a process's
// source is seeded by its first draw, and no other.
func TestMeshSeedsNoSourceUntilDrawn(t *testing.T) {
	m, err := tcpnet.New(tcpnet.Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	c := m.Cluster()
	got := make(chan struct{})
	m.Spawn(2, "recv", func(p dsys.Proc) {
		p.Recv(dsys.MatchKind("ping"))
		close(got)
	})
	m.Spawn(1, "send", func(p dsys.Proc) { p.Send(2, "ping", nil) })
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("ping not delivered")
	}
	if net, procs := c.Seeded(); net || slices.Contains(procs, true) {
		t.Fatalf("sources seeded before any draw: network %v, processes %v", net, procs)
	}
	drew := make(chan struct{})
	m.Spawn(3, "draw", func(p dsys.Proc) {
		p.Rand().Int63()
		close(drew)
	})
	<-drew
	if net, procs := c.Seeded(); net || !slices.Equal(procs, []bool{false, false, true}) {
		t.Errorf("after p3's draw: network %v, processes %v; want only p3's", net, procs)
	}
}

// discard is a transport that carries nothing.
type discard struct{}

func (discard) Start(func(*dsys.Message)) {}
func (discard) Send(dsys.Message)         {}
func (discard) Crash(dsys.ProcessID)      {}
func (discard) Stop()                     {}

// planCall is one Plan call of a network model, with the model's answer.
type planCall struct {
	from, to dsys.ProcessID
	kind     string
	at       time.Duration
	delay    time.Duration
	drop     bool
}

// TestNetworkPlansFromConfigSeed: a cluster's network model draws from a
// source seeded with Config.Seed, however late the first draw comes, so the
// drops and delays it plans are those a fresh source with that seed gives.
func TestNetworkPlansFromConfigSeed(t *testing.T) {
	const (
		seed  = 42
		sends = 200
	)
	model := network.FairLossy{P: 0.3, Under: network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 5 * time.Millisecond}}}
	var calls []planCall // appended under the cluster's network lock
	rec := network.Func(func(from, to dsys.ProcessID, kind string, at time.Duration, rng *rand.Rand) (time.Duration, bool) {
		delay, drop := model.Plan(from, to, kind, at, rng)
		calls = append(calls, planCall{from, to, kind, at, delay, drop})
		return delay, drop
	})
	c := live.NewCluster(live.Config{N: 3, Network: rec, Seed: seed, Transport: discard{}})
	done := make(chan struct{})
	c.Spawn(1, "send", func(p dsys.Proc) {
		defer close(done)
		for i := 0; i < sends; i++ {
			p.Send(dsys.ProcessID(2+i%2), "k", nil)
		}
	})
	<-done
	c.Stop()
	if len(calls) != sends {
		t.Fatalf("%d plans for %d sends", len(calls), sends)
	}
	ref := rand.New(rand.NewSource(seed))
	drops := 0
	for i, call := range calls {
		delay, drop := model.Plan(call.from, call.to, call.kind, call.at, ref)
		if delay != call.delay || drop != call.drop {
			t.Fatalf("plan %d: cluster planned (%v, drop %v), a source seeded with %d plans (%v, drop %v)",
				i, call.delay, call.drop, seed, delay, drop)
		}
		if drop {
			drops++
		}
	}
	if drops == 0 || drops == sends {
		t.Errorf("%d of %d sends dropped: the model's randomness is not exercised", drops, sends)
	}
}
