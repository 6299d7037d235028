package tcpnet_test

// The transport contract. Every live transport implements live.Transport,
// and the cluster plans drops, delays, duplication and partitions with one
// network.Network model before a message reaches any of them, so one table
// holds them all to the same bar: TCP streams, UDP datagrams, and the mixed
// mode (TCP with the test's "seq" kind routed over UDP, the shape cmd/ecnode
// runs). A fault description found on the simulator therefore means the same
// thing on every carrier, and the cluster on every transport obeys the same
// crash/stop contract.

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/udpnet"
	"repro/internal/wire"
)

// listener is one inbound socket of a process that raw bytes can be sent at.
type listener struct {
	network, addr string
	badframe      string // the link event a malformed frame there is traced as
}

type transportCase struct {
	name string
	// exact: the carrier of kind "seq" retransmits, so every copy the
	// network model plans arrives.
	exact bool
	// build returns a fresh transport for n processes and the listeners of
	// process 2.
	build func(t *testing.T, n int, col *trace.Collector) (live.Transport, []listener)
}

func newTCP(t *testing.T, cfg tcpnet.Config) *tcpnet.Transport {
	t.Helper()
	tr, err := tcpnet.NewTransport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newUDP(t *testing.T, n int, col *trace.Collector) *udpnet.Transport {
	t.Helper()
	tr, err := udpnet.NewTransport(udpnet.Config{N: n, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

var transports = []transportCase{
	{"tcp", true, func(t *testing.T, n int, col *trace.Collector) (live.Transport, []listener) {
		tr := newTCP(t, tcpnet.Config{N: n, Trace: col})
		return tr, []listener{{"tcp", tr.Addr(2), "tcp.badframe"}}
	}},
	{"udp", false, func(t *testing.T, n int, col *trace.Collector) (live.Transport, []listener) {
		tr := newUDP(t, n, col)
		return tr, []listener{{"udp", tr.Addr(2), "udp.badframe"}}
	}},
	{"mixed", false, func(t *testing.T, n int, col *trace.Collector) (live.Transport, []listener) {
		udp := newUDP(t, n, col)
		tr := newTCP(t, tcpnet.Config{N: n, Trace: col, Datagram: udp, DatagramKinds: []string{"seq"}})
		return tr, []listener{{"tcp", tr.Addr(2), "tcp.badframe"}, {"udp", udp.Addr(2), "udp.badframe"}}
	}},
}

// spy wraps a transport and counts what it hands to Cluster.Inject, by
// direction — including messages the cluster then drops.
type spy struct {
	live.Transport
	mu      sync.Mutex
	arrived map[[2]dsys.ProcessID]int
}

func (s *spy) Start(inject func(*dsys.Message)) {
	s.Transport.Start(func(m *dsys.Message) {
		s.mu.Lock()
		s.arrived[[2]dsys.ProcessID{m.From, m.To}]++
		s.mu.Unlock()
		inject(m)
	})
}

// take returns the arrival counts so far and resets them.
func (s *spy) take() map[[2]dsys.ProcessID]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	got := s.arrived
	s.arrived = make(map[[2]dsys.ProcessID]int)
	return got
}

// instant is the fault-free link model: every message handed on at once.
var instant = network.Reliable{Latency: network.Fixed(0)}

// start runs a 2-process cluster over a fresh transport of tc, with model
// planning every message (nil: none), stopped when the test ends.
func start(t *testing.T, tc transportCase, model network.Network, col *trace.Collector) (*live.Cluster, *spy, []listener) {
	t.Helper()
	tr, lns := tc.build(t, 2, col)
	sp := &spy{Transport: tr, arrived: make(map[[2]dsys.ProcessID]int)}
	c := live.NewCluster(live.Config{N: 2, Network: model, Seed: 1, Trace: col, Transport: sp})
	t.Cleanup(c.Stop)
	return c, sp, lns
}

// forEach runs body as one subtest per transport.
func forEach(t *testing.T, body func(t *testing.T, tc transportCase)) {
	for _, tc := range transports {
		t.Run(tc.name, func(t *testing.T) { body(t, tc) })
	}
}

// collect spawns a receiver on process id forwarding the payloads of kind.
// The buffer holds far more than any test reads; once full, payloads are
// discarded rather than wedging the task, which Stop could not reap.
func collect(c *live.Cluster, id dsys.ProcessID, kind string) <-chan int {
	got := make(chan int, 1024)
	c.Spawn(id, "recv-"+kind, func(p dsys.Proc) {
		for {
			msg, _ := p.Recv(dsys.MatchKind(kind))
			select {
			case got <- msg.Payload.(int):
			default:
			}
		}
	})
	return got
}

// stream spawns a task on process from sending kind to process to every
// period, forever.
func stream(c *live.Cluster, from, to dsys.ProcessID, kind string, period time.Duration) {
	c.Spawn(from, "send-"+kind, func(p dsys.Proc) {
		for i := 0; ; i++ {
			p.Send(to, kind, i)
			p.Sleep(period)
		}
	})
}

// within fails the test if fn does not return inside d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s blocked for %v", what, d)
	}
}

// TestCertainDropSilences: a link that loses every message delivers nothing.
func TestCertainDropSilences(t *testing.T) {
	forEach(t, func(t *testing.T, tc transportCase) {
		col := trace.NewCollector()
		c, _, _ := start(t, tc, network.FairLossy{P: 1, Under: instant}, col)
		got := collect(c, 2, "seq")
		stream(c, 1, 2, "seq", time.Millisecond)
		select {
		case v := <-got:
			t.Fatalf("frame %d delivered despite certain loss", v)
		case <-time.After(400 * time.Millisecond):
		}
		if col.Dropped("seq") == 0 {
			t.Fatal("no drop traced — nothing was sent?")
		}
	})
}

// TestCertainDupDoubles: a link that always makes one extra copy visibly
// duplicates — clearly more deliveries than distinct sends, never more than
// two per send. A retransmitting carrier must converge on exactly 2 copies
// each; a datagram carrier may shed copies (natural loss), so its bar is
// "duplication observed, never more than doubled".
func TestCertainDupDoubles(t *testing.T) {
	forEach(t, func(t *testing.T, tc transportCase) {
		const sends = 40
		c, _, _ := start(t, tc, network.Duplicating{P: 1, MaxCopies: 2, Under: instant}, trace.NewCollector())
		got := collect(c, 2, "seq")
		c.Spawn(1, "send", func(p dsys.Proc) {
			for i := 0; i < sends; i++ {
				p.Send(2, "seq", i)
				p.Sleep(2 * time.Millisecond)
			}
		})
		perSend := make(map[int]int)
		count := func(v int) {
			if perSend[v]++; perSend[v] > 2 {
				t.Fatalf("send %d delivered %d times — more copies than MaxCopies=2 allows", v, perSend[v])
			}
		}
		want := 2 * sends
		if !tc.exact {
			want = sends + sends/2 // duplication unmistakable even with some loss
		}
		deadline := time.After(15 * time.Second)
		for total := 0; total < want; total++ {
			select {
			case v := <-got:
				count(v)
			case <-deadline:
				t.Fatalf("only %d deliveries of %d sends with P=1 (want >= %d)", total, sends, want)
			}
		}
		// Drain stragglers and re-check the per-send ceiling.
		time.Sleep(200 * time.Millisecond)
		for len(got) > 0 {
			count(<-got)
		}
	})
}

// TestDropAndDuplicationFaults: with 30% loss and 50% duplication some but
// not all messages arrive, and the receiver sees more deliveries than
// distinct sends.
func TestDropAndDuplicationFaults(t *testing.T) {
	forEach(t, func(t *testing.T, tc transportCase) {
		const sends = 400
		col := trace.NewCollector()
		c, _, _ := start(t, tc, network.Duplicating{P: 0.5, MaxCopies: 2,
			Under: network.FairLossy{P: 0.3, Under: instant}}, col)
		got := collect(c, 2, "seq")
		done := make(chan struct{})
		c.Spawn(1, "send", func(p dsys.Proc) {
			for i := 0; i < sends; i++ {
				p.Send(2, "seq", i)
				if i%10 == 9 {
					p.Sleep(time.Millisecond) // no burst a socket buffer could shed
				}
			}
			close(done)
		})
		<-done
		time.Sleep(300 * time.Millisecond) // drain
		delivered := len(got)
		distinct := make(map[int]bool)
		for len(got) > 0 {
			distinct[<-got] = true
		}
		if delivered == 0 || len(distinct) == sends && delivered == sends {
			t.Fatalf("faults inert: %d deliveries of %d distinct", delivered, len(distinct))
		}
		if delivered <= len(distinct) {
			t.Errorf("%d deliveries of %d distinct sends: no duplicate arrived", delivered, len(distinct))
		}
		if col.Dropped("seq") == 0 || col.LinkEvents("live.dup") == 0 {
			t.Errorf("dropped %d, live.dup %d: want both traced", col.Dropped("seq"), col.LinkEvents("live.dup"))
		}
		if len(distinct) < sends/3 {
			t.Errorf("only %d of %d distinct messages arrived under 30%% loss", len(distinct), sends)
		}
	})
}

// TestPartitionAndHeal: a network.Func switched at run time cuts the 1<->2
// links; the receiver hears nothing until the cut is healed, then traffic
// resumes.
func TestPartitionAndHeal(t *testing.T) {
	forEach(t, func(t *testing.T, tc transportCase) {
		var cut atomic.Bool
		model := network.Func(func(_, _ dsys.ProcessID, _ string, _ time.Duration, _ *rand.Rand) (time.Duration, bool) {
			return 0, cut.Load()
		})
		col := trace.NewCollector()
		c, _, _ := start(t, tc, model, col)
		got := collect(c, 2, "seq")
		stream(c, 1, 2, "seq", 2*time.Millisecond)
		// Phase 1: traffic flows.
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatal("no traffic before partition")
		}
		cut.Store(true)
		time.Sleep(50 * time.Millisecond) // let in-flight frames drain
		for len(got) > 0 {
			<-got
		}
		// Phase 2: partition holds — nothing arrives.
		select {
		case v := <-got:
			t.Fatalf("frame %d crossed the partition", v)
		case <-time.After(150 * time.Millisecond):
		}
		if col.Dropped("seq") == 0 {
			t.Error("no drop traced while partitioned")
		}
		// Phase 3: heal — traffic resumes.
		cut.Store(false)
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatal("no traffic after heal")
		}
	})
}

// TestAsymmetricDelay: a network.PerLink delay holds back one direction
// only. With 300ms on 1->2 the 2->1 path stays fast; both directions start
// sending at the same time, so the first arrivals must be separated by most
// of the delay.
func TestAsymmetricDelay(t *testing.T) {
	forEach(t, func(t *testing.T, tc transportCase) {
		model := network.PerLink{Default: instant, Links: map[network.LinkKey]network.Network{
			{From: 1, To: 2}: network.Reliable{Latency: network.Fixed(300 * time.Millisecond)},
		}}
		c, _, _ := start(t, tc, model, nil)
		t0 := time.Now()
		var first [2]chan time.Duration // first arrival at p1, at p2
		for i := range first {
			id := dsys.ProcessID(i + 1)
			got, at := collect(c, id, "seq"), make(chan time.Duration, 1)
			first[i] = at
			go func() {
				<-got
				at <- time.Since(t0)
			}()
			stream(c, id, 3-id, "seq", 10*time.Millisecond)
		}
		var at [2]time.Duration
		for i := range at {
			select {
			case at[i] = <-first[i]:
			case <-time.After(10 * time.Second):
				t.Fatalf("nothing arrived at p%d", i+1)
			}
		}
		fast, slow := at[0], at[1] // p1 hears the fast 2->1 path, p2 the delayed 1->2 one
		if slow-fast < 150*time.Millisecond {
			t.Errorf("asymmetric delay not visible: fast direction first at %v, delayed at %v", fast, slow)
		}
	})
}

// TestCrashStopsBothDirections: once the cluster crashes a process, the
// transport carries nothing to it or from it — not the survivor's sends, not
// a send in the crashed process's name — and the crash is traced once.
func TestCrashStopsBothDirections(t *testing.T) {
	forEach(t, func(t *testing.T, tc transportCase) {
		col := trace.NewCollector()
		c, sp, _ := start(t, tc, nil, col)
		for _, kind := range []string{"seq", "ctl"} { // "ctl" stays on TCP in the mixed mode
			collect(c, 1, kind)
			collect(c, 2, kind)
			stream(c, 1, 2, kind, time.Millisecond)
			stream(c, 2, 1, kind, time.Millisecond)
		}
		deadline := time.Now().Add(10 * time.Second)
		seen := make(map[[2]dsys.ProcessID]int)
		for seen[[2]dsys.ProcessID{1, 2}] == 0 || seen[[2]dsys.ProcessID{2, 1}] == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("no traffic in both directions before the crash: %v", seen)
			}
			time.Sleep(5 * time.Millisecond)
			for k, v := range sp.take() {
				seen[k] += v
			}
		}

		c.Crash(2)
		crashedAt, ok := col.CrashTime(2)
		if !ok {
			t.Fatal("crash not traced")
		}
		time.Sleep(100 * time.Millisecond) // in-flight frames may still land
		sp.take()
		for i := 0; i < 20; i++ {
			sp.Send(dsys.Message{From: 2, To: 1, Kind: "seq", Payload: i})
			sp.Send(dsys.Message{From: 2, To: 1, Kind: "ctl", Payload: i})
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(100 * time.Millisecond)
		if got := sp.take(); len(got) != 0 {
			t.Errorf("traffic after the crash of p2: %v", got)
		}
		c.Crash(2)
		if again, _ := col.CrashTime(2); again != crashedAt {
			t.Errorf("second Crash re-traced p2: %v then %v", crashedAt, again)
		}
	})
}

// TestCrashStopInEitherOrder: Crash then Stop and Stop then Crash, each
// twice, neither panic nor block, and a transport Send or Crash racing a
// finished Stop returns.
func TestCrashStopInEitherOrder(t *testing.T) {
	forEach(t, func(t *testing.T, tc transportCase) {
		for _, order := range []string{"crash-first", "stop-first"} {
			c, sp, _ := start(t, tc, nil, nil)
			collect(c, 2, "seq")
			stream(c, 1, 2, "seq", time.Millisecond)
			stream(c, 2, 1, "seq", time.Millisecond)
			time.Sleep(20 * time.Millisecond)
			within(t, 5*time.Second, order, func() {
				for i := 0; i < 2; i++ {
					if order == "crash-first" {
						c.Crash(1)
						c.Stop()
					} else {
						c.Stop()
						c.Crash(1)
					}
				}
				sp.Send(dsys.Message{From: 1, To: 2, Kind: "seq", Payload: -1})
				sp.Crash(2)
			})
		}
	})
}

// TestOutOfRangeIsDroppedNotPanic: an inbound frame from a process that does
// not exist is dropped and traced as the listener's badframe event, a
// message injected for a destination that does not exist is dropped, and
// the cluster keeps delivering after both.
func TestOutOfRangeIsDroppedNotPanic(t *testing.T) {
	forEach(t, func(t *testing.T, tc transportCase) {
		col := trace.NewCollector()
		c, _, lns := start(t, tc, nil, col)
		got := collect(c, 2, "seq")
		for _, from := range []dsys.ProcessID{99, 0} {
			// The same bytes are one TCP frame and one datagram.
			b, err := wire.AppendFrame(nil, &wire.Frame{From: from, To: 2, Kind: "seq", Payload: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, ln := range lns {
				sendRaw(t, ln, b)
			}
		}
		for _, to := range []dsys.ProcessID{0, 3} {
			c.Inject(&dsys.Message{From: 1, To: to, Kind: "seq", Payload: 8})
		}
		deadline := time.Now().Add(5 * time.Second)
		for _, ln := range lns {
			for col.LinkEvents(ln.badframe) < 2 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := col.LinkEvents(ln.badframe); n < 2 {
				t.Errorf("%s = %d, want 2 (senders 99 and 0)", ln.badframe, n)
			}
		}
		stream(c, 1, 2, "seq", 2*time.Millisecond)
		select {
		case v := <-got:
			if v == 7 || v == 8 {
				t.Fatalf("out-of-range message delivered (payload %d)", v)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("no delivery after the out-of-range frames")
		}
	})
}

// sendRaw writes b at the listener from a fresh socket.
func sendRaw(t *testing.T, ln listener, b []byte) {
	t.Helper()
	conn, err := net.Dial(ln.network, ln.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfRangeCrashAlike: crashing a process that does not exist is the
// same programming error on every transport — the cluster's panic, raised
// before any transport is reached.
func TestOutOfRangeCrashAlike(t *testing.T) {
	forEach(t, func(t *testing.T, tc transportCase) {
		c, _, _ := start(t, tc, nil, nil)
		for _, id := range []dsys.ProcessID{0, 3} {
			func() {
				defer func() {
					want := fmt.Sprintf("live: invalid process id %v", id)
					if r := recover(); r != want {
						t.Errorf("Crash(%v) panicked with %v, want %q", id, r, want)
					}
				}()
				c.Crash(id)
			}()
		}
	})
}
