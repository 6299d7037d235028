package udpnet_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/netfault"
	"repro/internal/trace"
	"repro/internal/udpnet"
	"repro/internal/wire"
)

// udpCluster runs a live cluster over an all-UDP transport, stopped when the
// test ends.
func udpCluster(t *testing.T, cfg udpnet.Config) (*udpnet.Transport, *live.Cluster) {
	t.Helper()
	tr, err := udpnet.NewTransport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := live.NewCluster(live.Config{N: cfg.N, Trace: cfg.Trace, Transport: tr})
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
			tr, c := udpCluster(t, udpnet.Config{N: 2, Trace: col})
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

func TestMeshDeliveryAndPartition(t *testing.T) {
	col := trace.NewCollector()
	faults := &udpnet.Faults{Knobs: netfault.Knobs{Seed: 3}}
	tr, c := udpCluster(t, udpnet.Config{N: 2, Trace: col, Faults: faults})
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
	faults.Partition(1, 2)
	time.Sleep(50 * time.Millisecond) // drain in-flight datagrams
	for len(got) > 0 {
		<-got
	}
	select {
	case v := <-got:
		t.Fatalf("datagram %d crossed the partition", v)
	case <-time.After(150 * time.Millisecond):
	}
	if col.LinkEvents("udp.cut") == 0 {
		t.Error("no udp.cut traced while partitioned")
	}
	faults.Heal(1, 2)
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no traffic after heal")
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
	tr, c := udpCluster(t, udpnet.Config{N: 2})
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

// An asymmetric per-direction delay holds back one direction only: with
// SetDelay(1->2, 300ms) the 2->1 path stays fast while 1->2 lags by the
// configured delay. Both directions start sending at the same time, so the
// first arrivals must be separated by most of the delay.
func TestAsymmetricDelay(t *testing.T) {
	faults := &udpnet.Faults{Knobs: netfault.Knobs{Seed: 5}}
	_, c := udpCluster(t, udpnet.Config{N: 2, Faults: faults})
	faults.SetDelay(1, 2, 300*time.Millisecond)

	var mu sync.Mutex
	first := map[dsys.ProcessID]time.Duration{}
	start := time.Now()
	arrival := func(self dsys.ProcessID) func(p dsys.Proc) {
		return func(p dsys.Proc) {
			p.Recv(dsys.MatchKind("ping"))
			mu.Lock()
			if _, ok := first[self]; !ok {
				first[self] = time.Since(start)
			}
			mu.Unlock()
			for {
				p.Recv(dsys.MatchKind("ping"))
			}
		}
	}
	c.Spawn(1, "recv", arrival(1))
	c.Spawn(2, "recv", arrival(2))
	for _, id := range []dsys.ProcessID{1, 2} {
		id := id
		c.Spawn(id, "send", func(p dsys.Proc) {
			for {
				p.Send(3-id, "ping", 0)
				p.Sleep(10 * time.Millisecond)
			}
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		_, ok1 := first[1]
		_, ok2 := first[2]
		mu.Unlock()
		if ok1 && ok2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("arrivals incomplete")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	fast, slow := first[1], first[2] // at p1: fast 2->1 path; at p2: delayed 1->2 path
	mu.Unlock()
	if slow-fast < 150*time.Millisecond {
		t.Errorf("asymmetric delay not visible: fast direction first at %v, delayed at %v", fast, slow)
	}
}

// Construction must reject out-of-range knobs through the shared netfault
// validation path.
func TestBadKnobsRejected(t *testing.T) {
	bad := []*udpnet.Faults{
		{Knobs: netfault.Knobs{DropP: 1.5}},
		{Knobs: netfault.Knobs{DupP: -0.1}},
		{ReorderP: 2},
		{ReorderWindow: -time.Second},
		{Jitter: -time.Millisecond},
	}
	for i, fa := range bad {
		if _, err := udpnet.NewTransport(udpnet.Config{N: 2, Faults: fa}); err == nil {
			t.Errorf("case %d: bad faults accepted", i)
		}
	}
}
