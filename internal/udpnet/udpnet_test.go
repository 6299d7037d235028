package udpnet_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/trace"
	"repro/internal/udpnet"
	"repro/internal/wire"
)

// udpCluster runs a live cluster over an all-UDP transport, with model
// planning its messages (nil: none), stopped when the test ends.
func udpCluster(t *testing.T, cfg udpnet.Config, model network.Network) (*udpnet.Transport, *live.Cluster) {
	t.Helper()
	tr, err := udpnet.NewTransport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := live.NewCluster(live.Config{N: cfg.N, Network: model, Seed: cfg.Seed, Trace: cfg.Trace, Transport: tr})
	t.Cleanup(c.Stop)
	return tr, c
}

func TestDatagramCodecRoundTrip(t *testing.T) {
	frames := []wire.Frame{
		{From: 1, To: 2, Kind: "hb.alive", Payload: nil},
		{From: 3, To: 1, Kind: "seq", Payload: 42},
		{From: 1, To: 2, Kind: "ring.beat", Payload: []dsys.ProcessID{3, 1, 2}},
		{From: 2, To: 4, Kind: "s", Payload: "hello-over-udp"},
	}
	for _, f := range frames {
		f := f
		dg, err := udpnet.AppendDatagram(nil, &f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if len(dg) < 4 {
			t.Fatalf("%v: datagram too short: %d bytes", f, len(dg))
		}
		// The redundant length prefix must agree exactly with the datagram.
		n := uint32(dg[0])<<24 | uint32(dg[1])<<16 | uint32(dg[2])<<8 | uint32(dg[3])
		if int(n) != len(dg)-4 {
			t.Fatalf("%v: prefix %d != body %d", f, n, len(dg)-4)
		}
		got, err := udpnet.DecodeDatagram(dg)
		if err != nil {
			t.Fatalf("%v: decode: %v", f, err)
		}
		if got.From != f.From || got.To != f.To || got.Kind != f.Kind {
			t.Fatalf("round trip mangled header: %v -> %v", f, got)
		}
	}
}

func TestDatagramCodecRejectsHostile(t *testing.T) {
	valid, err := udpnet.AppendDatagram(nil, &wire.Frame{From: 1, To: 2, Kind: "k", Payload: 7})
	if err != nil {
		t.Fatal(err)
	}
	hostile := map[string][]byte{
		"empty":           {},
		"short prefix":    {0, 0},
		"truncated body":  valid[:len(valid)-1],
		"trailing byte":   append(append([]byte(nil), valid...), 0), // 2 frames/datagram forbidden
		"prefix too big":  {0xff, 0xff, 0xff, 0xff},
		"prefix oversold": {0, 0, 0, 9, 1, 2},
	}
	for name, b := range hostile {
		if _, err := udpnet.DecodeDatagram(b); err == nil {
			t.Errorf("%s: hostile datagram decoded", name)
		}
	}
}

// TestUnsendableFrameLabelled: a frame the sender cannot put in a datagram,
// sent between two good frames, is traced under the event that says why —
// an unregistered payload type is not a size problem — exactly once, and its
// neighbours are delivered in order.
func TestUnsendableFrameLabelled(t *testing.T) {
	for _, tc := range []struct {
		name, event, errText string
		payload              any
	}{
		{"unregistered type", "udp.unencodable", "unregistered payload type map[string]int", map[string]int{"a": 1}},
		{"above MaxDatagram", "udp.toobig", "above MaxDatagram", make([]byte, udpnet.MaxDatagram)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := udpnet.AppendDatagram(nil, &wire.Frame{From: 1, To: 2, Kind: "seq", Payload: tc.payload})
			if err == nil || !strings.Contains(err.Error(), tc.errText) {
				t.Fatalf("AppendDatagram error %v, want it to say %q", err, tc.errText)
			}
			col := trace.NewCollector()
			tr, c := udpCluster(t, udpnet.Config{N: 2, Trace: col}, nil)
			got := make(chan any, 4)
			c.Spawn(2, "recv", func(p dsys.Proc) {
				for {
					msg, _ := p.Recv(dsys.MatchKind("seq"))
					got <- msg.Payload
				}
			})
			for _, payload := range []any{0, tc.payload, 1} {
				tr.Send(dsys.Message{From: 1, To: 2, Kind: "seq", Payload: payload})
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
			for _, event := range []string{"udp.unencodable", "udp.toobig"} {
				want := 0
				if event == tc.event {
					want = 1
				}
				if n := col.LinkEvents(event); n != want {
					t.Errorf("%s = %d, want %d", event, n, want)
				}
			}
		})
	}
}

// TestMeshDelivery: datagrams flow between two processes and the transport
// counts them. Partitions are a network model's business, checked on every
// carrier by tcpnet's transport contract table.
func TestMeshDelivery(t *testing.T) {
	tr, c := udpCluster(t, udpnet.Config{N: 2}, nil)
	got := make(chan int, 4096)
	c.Spawn(2, "recv", func(p dsys.Proc) {
		for {
			msg, _ := p.Recv(dsys.MatchKind("seq"))
			got <- msg.Payload.(int)
		}
	})
	c.Spawn(1, "send", func(p dsys.Proc) {
		for i := 0; ; i++ {
			p.Send(2, "seq", i)
			p.Sleep(2 * time.Millisecond)
		}
	})
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no datagrams delivered")
	}
	if sent, rcvd, bytes := tr.Stats(); sent == 0 || rcvd == 0 || bytes == 0 {
		t.Errorf("Stats() = %d/%d/%d, want all nonzero", sent, rcvd, bytes)
	}
}

// Two single-process transports (the cmd/ecnode shape) reach each other at
// configured addresses; frames addressed to the wrong process are rejected.
func TestSingleProcessPair(t *testing.T) {
	t1, err := udpnet.NewTransport(udpnet.Config{N: 2, Self: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Stop()
	t2, err := udpnet.NewTransport(udpnet.Config{
		N: 2, Self: 2,
		Peers: map[dsys.ProcessID]string{1: t1.Addr(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Stop()

	// t1 learns t2's address the way ecnode does: from config at build time.
	t1b, err := udpnet.NewTransport(udpnet.Config{
		N: 2, Self: 1, Bind: "127.0.0.1:0",
		Peers: map[dsys.ProcessID]string{2: t2.Addr(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t1.Stop() // only t1b participates from here on
	defer t1b.Stop()

	got := make(chan dsys.Message, 128)
	t2.Start(func(m *dsys.Message) { got <- *m })
	deadline := time.After(10 * time.Second)
	for {
		t1b.Send(dsys.Message{From: 1, To: 2, Kind: "ping", Payload: 1})
		select {
		case m := <-got:
			if m.From != 1 || m.To != 2 || m.Kind != "ping" {
				t.Fatalf("mangled message: %+v", m)
			}
			return
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("no datagram crossed the process pair")
		}
	}
}

// Crash closes the victim's socket and stops traffic both ways.
func TestTransportCrash(t *testing.T) {
	tr, c := udpCluster(t, udpnet.Config{N: 2}, nil)
	var mu sync.Mutex
	count := 0
	c.Spawn(2, "recv", func(p dsys.Proc) {
		for {
			p.Recv(dsys.MatchKind("seq"))
			mu.Lock()
			count++
			mu.Unlock()
		}
	})
	c.Spawn(1, "send", func(p dsys.Proc) {
		for i := 0; ; i++ {
			p.Send(2, "seq", i)
			p.Sleep(time.Millisecond)
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no traffic before crash")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Crash(2)
	time.Sleep(50 * time.Millisecond) // let sends that raced the crash flag finish
	sentBefore, _, _ := tr.Stats()
	time.Sleep(100 * time.Millisecond)
	sentAfter, _, _ := tr.Stats()
	if sentAfter != sentBefore {
		t.Errorf("transport still transmitting to a crashed process: %d -> %d", sentBefore, sentAfter)
	}
}

// Construction must reject out-of-range reordering knobs.
func TestBadKnobsRejected(t *testing.T) {
	bad := []udpnet.Config{
		{N: 2, ReorderP: 2},
		{N: 2, ReorderP: -0.1},
		{N: 2, ReorderWindow: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := udpnet.NewTransport(cfg); err == nil {
			t.Errorf("case %d: bad knobs accepted", i)
		}
	}
}
