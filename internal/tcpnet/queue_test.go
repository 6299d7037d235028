package tcpnet

// Internal test: queue overflow policy. Runs in-package so it can redirect
// a peer's dial address to a dead port, wedging the writer in its backoff
// loop while sends pile into the bounded queue.

import (
	"net"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/trace"
)

func TestQueueOverflowDropsOldest(t *testing.T) {
	col := trace.NewCollector()
	m, err := New(Config{N: 2, Trace: col, QueueLen: 3, DialTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	// Point p2's dial target at a port that refuses connections.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	realAddr := m.Addr(2)
	m.tr.setAddr(2, deadAddr)

	got := make(chan int, 100)
	m.Spawn(2, "recv", func(p dsys.Proc) {
		for {
			msg, _ := p.Recv(dsys.MatchKind("seq"))
			got <- msg.Payload.(int)
		}
	})
	const sends = 10
	m.Spawn(1, "send", func(p dsys.Proc) {
		for i := 0; i < sends; i++ {
			p.Send(2, "seq", i)
		}
	})

	// The writer cannot connect; with QueueLen 3 the oldest frames must be
	// shed. (The writer may hold one dequeued frame, so at least
	// sends - QueueLen - 1 overflow events are guaranteed.)
	deadline := time.Now().Add(10 * time.Second)
	for col.LinkEvents("tcp.overflow") < sends-4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := col.LinkEvents("tcp.overflow"); n < sends-4 {
		t.Fatalf("tcp.overflow = %d, want >= %d", n, sends-4)
	}
	if col.LinkEvents("tcp.dialfail") == 0 {
		t.Error("writer never recorded a failed dial")
	}

	// Restore the real address: the backlog must drain, and what survives
	// is a suffix of the newest frames (oldest-dropped policy).
	m.tr.setAddr(2, realAddr)
	var received []int
	deadlineCh := time.After(10 * time.Second)
	for {
		select {
		case v := <-got:
			received = append(received, v)
			if v == sends-1 {
				goto done
			}
		case <-deadlineCh:
			t.Fatalf("newest frame never arrived after reconnect; got %v", received)
		}
	}
done:
	if len(received) > 5 {
		t.Errorf("received %d frames, want <= QueueLen+retained few: %v", len(received), received)
	}
	for i := 1; i < len(received); i++ {
		if received[i] <= received[i-1] {
			t.Errorf("order violated after overflow: %v", received)
		}
	}
}
