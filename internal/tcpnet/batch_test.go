package tcpnet

// In-package tests for the batched writer's failure accounting. They use the
// mesh's dial hook to inject deterministic connection failures: a batch that
// hits a broken connection must retry every frame exactly once, in order,
// and emit tcp.break / tcp.lost once per broken attempt / lost frame.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/trace"
	"repro/internal/wire"
)

// brokenConn is a net.Conn whose every write fails — the deterministic stand-in
// for a connection that died between dial and first flush.
type brokenConn struct {
	once sync.Once
	done chan struct{}
}

func newBrokenConn() *brokenConn { return &brokenConn{done: make(chan struct{})} }

func (c *brokenConn) Write([]byte) (int, error) { return 0, errors.New("broken pipe (test)") }
func (c *brokenConn) Read([]byte) (int, error) {
	<-c.done
	return 0, io.EOF
}
func (c *brokenConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}
func (c *brokenConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *brokenConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *brokenConn) SetDeadline(time.Time) error      { return nil }
func (c *brokenConn) SetReadDeadline(time.Time) error  { return nil }
func (c *brokenConn) SetWriteDeadline(time.Time) error { return nil }

// collectKind spawns a receiver on process `to` forwarding payloads of kind.
func collectKind(m *Mesh, to dsys.ProcessID, kind string) <-chan any {
	ch := make(chan any, 1024)
	m.Spawn(to, "recv", func(p dsys.Proc) {
		for {
			msg, _ := p.Recv(dsys.MatchKind(kind))
			ch <- msg.Payload
		}
	})
	return ch
}

// holdThenDial builds a dial hook whose attempt n returns conns[n-1] (nil
// means a dial error), falling back to real dialing after the script runs
// out. Attempt 1 additionally blocks until release is closed, so the test
// can fill the queue and force the whole send burst into one batch.
func holdThenDial(m *Mesh, release <-chan struct{}, conns ...net.Conn) {
	real := m.tr.dial
	attempt := 0
	m.tr.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		attempt++
		if attempt == 1 {
			<-release
			return nil, errors.New("dial held until batch queued")
		}
		if attempt-2 < len(conns) {
			if c := conns[attempt-2]; c != nil {
				return c, nil
			}
			return nil, errors.New("scripted dial failure")
		}
		return real(addr, timeout)
	}
}

// TestBatchBreakRetriesOnceInOrder: a full batch hits a broken connection.
// Every frame must be retried exactly once on the fresh connection, arrive
// exactly once and in order, with a single tcp.break and zero tcp.lost.
func TestBatchBreakRetriesOnceInOrder(t *testing.T) {
	col := trace.NewCollector()
	m, err := New(Config{N: 2, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	got := collectKind(m, 2, "seq")

	const B = 16
	release := make(chan struct{})
	holdThenDial(m, release, newBrokenConn()) // attempt 2 breaks, 3+ real
	for i := 0; i < B; i++ {
		m.tr.Send(dsys.Message{From: 1, To: 2, Kind: "seq", Payload: i})
	}
	close(release)

	for i := 0; i < B; i++ {
		select {
		case v := <-got:
			if v.(int) != i {
				t.Fatalf("frame %v arrived, want %d (reorder across retry)", v, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never arrived (break=%d lost=%d)",
				i, col.LinkEvents("tcp.break"), col.LinkEvents("tcp.lost"))
		}
	}
	select {
	case v := <-got:
		t.Fatalf("duplicate frame %v after clean retry", v)
	case <-time.After(100 * time.Millisecond):
	}
	if n := col.LinkEvents("tcp.break"); n != 1 {
		t.Errorf("tcp.break = %d, want exactly 1 (one broken batch attempt)", n)
	}
	if n := col.LinkEvents("tcp.lost"); n != 0 {
		t.Errorf("tcp.lost = %d, want 0 (every frame's retry succeeded)", n)
	}
}

// TestBatchDoubleBreakLosesEveryFrameOnce: the batch's retry also hits a
// broken connection. Each frame is dropped after its single retry — B
// tcp.lost events, exactly two tcp.break — and the link itself stays usable.
func TestBatchDoubleBreakLosesEveryFrameOnce(t *testing.T) {
	col := trace.NewCollector()
	m, err := New(Config{N: 2, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	got := collectKind(m, 2, "seq")

	const B = 16
	release := make(chan struct{})
	holdThenDial(m, release, newBrokenConn(), newBrokenConn()) // attempts 2+3 break
	for i := 0; i < B; i++ {
		m.tr.Send(dsys.Message{From: 1, To: 2, Kind: "seq", Payload: i})
	}
	close(release)

	deadline := time.Now().Add(10 * time.Second)
	for col.LinkEvents("tcp.lost") < B && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := col.LinkEvents("tcp.lost"); n != B {
		t.Fatalf("tcp.lost = %d, want %d (retry-once per frame)", n, B)
	}
	if n := col.LinkEvents("tcp.break"); n != 2 {
		t.Errorf("tcp.break = %d, want exactly 2 (two broken attempts)", n)
	}
	// The link must keep working after shedding the batch: fair-lossy, not
	// permanently dark.
	m.tr.Send(dsys.Message{From: 1, To: 2, Kind: "seq", Payload: 99})
	select {
	case v := <-got:
		if v.(int) != 99 {
			t.Fatalf("got stale frame %v, want 99 (lost frames must not resurface)", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("link dead after double break")
	}
}

// TestConcurrentSendersSharedPeer drives many sender tasks per process at
// every destination while connections reset and a process crashes — the
// -race regression for the lock-free peer table, send-path liveness flags
// and atomic trace counters.
func TestConcurrentSendersSharedPeer(t *testing.T) {
	col := trace.NewCollector()
	m, err := New(Config{N: 4, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	var delivered atomic.Int64
	for id := 1; id <= 4; id++ {
		m.Spawn(dsys.ProcessID(id), "recv", func(p dsys.Proc) {
			for {
				p.Recv(dsys.MatchKind("seq"))
				delivered.Add(1)
			}
		})
	}
	const sendersPerProc, msgs = 3, 100
	var wg sync.WaitGroup
	for id := 1; id <= 4; id++ {
		for s := 0; s < sendersPerProc; s++ {
			wg.Add(1)
			m.Spawn(dsys.ProcessID(id), fmt.Sprintf("send-%d", s), func(p dsys.Proc) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					for _, to := range p.All() {
						if to != p.ID() {
							p.Send(to, "seq", i)
						}
					}
				}
			})
		}
	}
	for i := 0; i < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		m.ResetConns()
	}
	m.Crash(4)
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() == 0 {
		t.Fatal("no deliveries under concurrent senders")
	}
}

// TestUnencodableFrameDroppedOnce: a frame wire cannot encode, queued between
// two good frames, costs exactly one tcp.unencodable — no break, no retry, no
// redial — and its neighbours arrive in order on the one connection.
func TestUnencodableFrameDroppedOnce(t *testing.T) {
	for _, tc := range []struct {
		name, logged string
		payload      any
	}{
		{"unregistered type", "unregistered payload type map[string]int", map[string]int{"a": 1}},
		{"body over MaxFrameLen", "exceeds MaxFrameLen", make([]byte, wire.MaxFrameLen+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := trace.NewCollector()
			var log strings.Builder // read after Stop: the writer goroutine has exited
			m, err := New(Config{N: 2, Trace: col, Log: &log})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Stop()
			got := collectKind(m, 2, "seq")
			for _, payload := range []any{0, tc.payload, 1} {
				m.tr.Send(dsys.Message{From: 1, To: 2, Kind: "seq", Payload: payload})
			}
			for want := 0; want < 2; want++ {
				select {
				case v := <-got:
					if v != want {
						t.Fatalf("frame %v arrived, want %d", v, want)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("frame %d never arrived", want)
				}
			}
			for event, want := range map[string]int{
				"tcp.unencodable": 1, "tcp.break": 0, "tcp.lost": 0, "tcp.dial": 1,
			} {
				if n := col.LinkEvents(event); n != want {
					t.Errorf("%s = %d, want %d", event, n, want)
				}
			}
			m.Stop()
			if out := log.String(); !strings.Contains(out, tc.logged) {
				t.Errorf("log %q does not say %q", out, tc.logged)
			}
		})
	}
}
