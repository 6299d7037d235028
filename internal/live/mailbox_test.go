package live_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/tcpnet"
)

// TestMailboxBoundedUnderLoad runs an n=3 replicated log over a TCP mesh
// under a saturating closed loop and reads every process's mailbox at 2 s and
// at 10 s. A delivery is offered once, to the parked receivers, and is
// otherwise buffered until a receiver asks; a message no receiver ever takes
// would pile up for good. The backlog must not grow with the run's length,
// and once the load has drained it must fall below a small constant.
func TestMailboxBoundedUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("ten seconds of saturating load")
	}
	const (
		n           = 3
		outstanding = 32 // per submitting replica
		// slack absorbs what is in flight at the instant a sample is taken,
		// and the self-addressed cec.decided wake-ups of instances that
		// learned their decision another way. Those wait in the buffer until
		// the replica's responder next receives, which under this load
		// happens every few seconds: a sawtooth that peaked near 40 on a
		// 2-core host. The bound leaves room for a slower host.
		slack = 128
		// drained is the backlog allowed once the load has stopped: what
		// accumulated since the responder last received.
		drained = slack
	)
	tr, err := tcpnet.NewTransport(tcpnet.Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	c := live.NewCluster(live.Config{N: n, Transport: tr})
	defer c.Stop()

	var mu sync.Mutex
	reps := make([]*core.Replica, n+1)
	credit := make([]chan struct{}, n+1)
	ready := make(chan struct{}, n)
	for _, id := range dsys.Pids(n) {
		id := id
		credit[id] = make(chan struct{}, outstanding)
		c.Spawn(id, "replica", func(p dsys.Proc) {
			r := core.StartReplica(p, core.Config{
				Apply: func(_ int, cmd core.Command) {
					if cmd.Origin == id {
						<-credit[id] // one of our commands is done: submit another
					}
				},
			})
			mu.Lock()
			reps[id] = r
			mu.Unlock()
			ready <- struct{}{}
		})
	}
	for i := 0; i < n; i++ {
		<-ready
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	submitted := make([]int, n+1)
	for _, id := range []dsys.ProcessID{2, 3} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case credit[id] <- struct{}{}:
					reps[id].Submit(i)
					submitted[id]++
				case <-stop:
					return
				}
			}
		}()
	}

	// sample reads the largest backlog and parked count of any process over
	// ten reads 10 ms apart.
	sample := func() (backlog, parked int) {
		for i := 0; i < 10; i++ {
			for _, id := range dsys.Pids(n) {
				b, p := c.Mailbox(id)
				backlog, parked = max(backlog, b), max(parked, p)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return backlog, parked
	}
	start := time.Now()
	time.Sleep(2 * time.Second)
	early, earlyParked := sample()
	time.Sleep(10*time.Second - time.Since(start))
	late, lateParked := sample()
	close(stop)
	wg.Wait()
	t.Logf("backlog %d at 2 s, %d at 10 s; parked %d, %d; %d+%d commands submitted",
		early, late, earlyParked, lateParked, submitted[2], submitted[3])
	if late > 2*early+slack {
		t.Errorf("backlog grew with the run: %d at 2 s, %d at 10 s", early, late)
	}

	want := submitted[2] + submitted[3]
	waitFor(t, "the load to drain", func() bool {
		for _, r := range reps[1:] {
			if r.AppliedLen() < want {
				return false
			}
		}
		return true
	})
	var rest int
	deadline := time.Now().Add(5 * time.Second)
	for {
		rest = 0
		for _, id := range dsys.Pids(n) {
			b, _ := c.Mailbox(id)
			rest = max(rest, b)
		}
		if rest <= drained || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("backlog %d after the load drained", rest)
	if rest > drained {
		for _, id := range dsys.Pids(n) {
			t.Logf("p%d holds %v", id, c.BacklogKinds(id))
		}
		t.Errorf("backlog %d after the load drained, want at most %d", rest, drained)
	}
}
