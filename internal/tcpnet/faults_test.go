package tcpnet_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// rawFrames encodes frames with the wire codec so tests can speak the
// protocol directly at a listener.
func rawFrames(t *testing.T, frames ...wire.Frame) []byte {
	t.Helper()
	var buf []byte
	var err error
	for i := range frames {
		if buf, err = wire.AppendFrame(buf, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestMalformedFramesDroppedNotPanic sends garbage bytes and out-of-range
// frames straight at a listener: the mesh must trace and drop them — the
// old code handed them to cluster.Inject, whose id lookup panicked and took
// the whole process down.
func TestMalformedFramesDroppedNotPanic(t *testing.T) {
	col := trace.NewCollector()
	m, err := tcpnet.New(tcpnet.Config{N: 2, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	got := make(chan string, 10)
	m.Spawn(2, "recv", func(p dsys.Proc) {
		for {
			msg, _ := p.Recv(dsys.MatchKind("ok"))
			got <- msg.Payload.(string)
		}
	})

	// 1: raw garbage bytes — the leading bytes parse as a length prefix far
	// beyond MaxFrameLen, so the whole stream is rejected as malformed.
	c1, err := net.Dial("tcp", m.Addr(2))
	if err != nil {
		t.Fatal(err)
	}
	c1.Write([]byte("\xff\xfedefinitely not a frame\x01\x02"))
	c1.Close()

	// 2: a well-framed body whose payload carries the reserved value tag 0x11
	// (the deleted gob blob lane).
	c3, err := net.Dial("tcp", m.Addr(2))
	if err != nil {
		t.Fatal(err)
	}
	c3.Write([]byte{0, 0, 0, 9, 2, 4, 1, 'k', 0x11, 3, 1, 2, 3})
	defer c3.Close()

	// 3: well-formed frames, out-of-range From and To addressed elsewhere.
	c2, err := net.Dial("tcp", m.Addr(2))
	if err != nil {
		t.Fatal(err)
	}
	c2.Write(rawFrames(t,
		wire.Frame{From: 99, To: 2, Kind: "evil", Payload: "x"}, // From out of range
		wire.Frame{From: -3, To: 2, Kind: "evil", Payload: "x"}, // negative From
		wire.Frame{From: 1, To: 7, Kind: "evil", Payload: "x"},  // To not this listener
		wire.Frame{From: 1, To: 2, Kind: "ok", Payload: "sane"}, // valid, must deliver
	))
	defer c2.Close()

	select {
	case v := <-got:
		if v != "sane" {
			t.Fatalf("delivered %q", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("valid frame after malformed ones never delivered (listener died?)")
	}

	deadline := time.Now().Add(5 * time.Second)
	for col.LinkEvents("tcp.badframe") < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := col.LinkEvents("tcp.badframe"); n < 5 {
		t.Errorf("tcp.badframe = %d, want >= 5 (garbage stream + reserved tag + 3 invalid frames)", n)
	}

	// The mesh must still be fully operational end to end.
	m.Spawn(1, "send", func(p dsys.Proc) { p.Send(2, "ok", "still-alive") })
	select {
	case v := <-got:
		if v != "still-alive" {
			t.Fatalf("delivered %q", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mesh dead after malformed frames")
	}
}

// TestReconnectAfterReset breaks every connection mid-stream and asserts
// traffic resumes: the old transport lost every subsequent message once a
// connection broke between two sends' redial attempts; now the writer
// redials with backoff and later frames flow again.
func TestReconnectAfterReset(t *testing.T) {
	col := trace.NewCollector()
	m, err := tcpnet.New(tcpnet.Config{N: 2, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	got := make(chan int, 1000)
	m.Spawn(2, "recv", func(p dsys.Proc) {
		for {
			msg, _ := p.Recv(dsys.MatchKind("seq"))
			got <- msg.Payload.(int)
		}
	})
	stop := make(chan struct{})
	m.Spawn(1, "send", func(p dsys.Proc) {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.Send(2, "seq", i)
			p.Sleep(2 * time.Millisecond)
		}
	})
	waitFor := func(min int) int {
		max := -1
		deadline := time.After(10 * time.Second)
		for max < min {
			select {
			case v := <-got:
				if v > max {
					max = v
				}
			case <-deadline:
				t.Fatalf("stalled at seq %d, want >= %d (resets=%d dials=%d)",
					max, min, col.LinkEvents("tcp.reset"), col.LinkEvents("tcp.dial"))
			}
		}
		return max
	}
	high := waitFor(5)
	for i := 0; i < 3; i++ {
		m.ResetConns()
		high = waitFor(high + 5) // progress after every reset
	}
	close(stop)
	if r := col.LinkEvents("tcp.reset"); r == 0 {
		t.Error("no tcp.reset traced")
	}
	if d := col.LinkEvents("tcp.dial"); d < 2 {
		t.Errorf("tcp.dial = %d, want >= 2 (initial + at least one reconnect)", d)
	}
}

// TestResetPValidated: construction rejects a reset probability outside
// [0, 1].
func TestResetPValidated(t *testing.T) {
	for _, p := range []float64{-0.1, 1.5} {
		if tr, err := tcpnet.NewTransport(tcpnet.Config{N: 2, ResetP: p}); err == nil {
			tr.Stop()
			t.Errorf("ResetP = %v accepted", p)
		}
	}
	tr, err := tcpnet.NewTransport(tcpnet.Config{N: 2, ResetP: 1})
	if err != nil {
		t.Fatalf("ResetP = 1 rejected: %v", err)
	}
	tr.Stop()
}
