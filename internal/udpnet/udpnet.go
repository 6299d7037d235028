// Package udpnet carries cluster messages as UDP datagrams: one wire frame
// per datagram, no connections, no reconnect machinery, no queues — a send
// either reaches the destination socket or it doesn't. This is the paper's
// link model made literal: Section 4 only asks fair-lossy links of the
// leader's heartbeat path, so heartbeat and ring-beat traffic tolerates
// loss, duplication and reordering by design, and running it over TCP both
// over-promises (reliable ordered delivery) and under-tests (no real loss
// ever reaches the detector) while TCP head-of-line blocking sits on the
// hot path.
//
// Transport implements live.Transport and is used in one of two places.
// As a cluster's whole transport, every message travels as a datagram:
//
//	tr, err := udpnet.NewTransport(udpnet.Config{N: 4, Trace: col})
//	c := live.NewCluster(live.Config{N: 4, Trace: col, Transport: tr})
//
// which is what the soak test and the E18 scenario matrix run detectors on.
// As tcpnet.Config.Datagram, it carries only the detector kinds while
// control traffic (rbcast, consensus, the replicated log) stays on TCP
// streams — the mixed mode cmd/ecnode exposes as
// "heartbeat_transport": "udp".
//
// Frames reuse the hardened codec of package wire unchanged: a datagram is
// exactly the bytes one TCP frame would put on a stream (4-byte big-endian
// body length, then the body). The length prefix is redundant on a datagram
// transport — the kernel already preserves message boundaries — and that
// redundancy is the sanity check: a datagram whose prefix disagrees with its
// actual size was truncated or corrupted and is dropped before the body
// decoder runs, and wire.DecodeFrame's trailing-bytes rejection enforces
// one-frame-per-datagram. Hostile input never panics (FuzzUDPFrameRoundTrip).
//
// Drops, delays, duplication and partitions come from the cluster's
// network.Network model (live.Config.Network), which plans every message
// before it reaches a transport, as on the simulator. The one fault left here
// is the datagram's own: Config.ReorderP holds datagrams back so later ones
// overtake them. Natural loss needs no injection at all: a datagram to a dead
// or absent destination simply vanishes, which is exactly the crash semantics
// the detectors exist to observe.
package udpnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsys"
	"repro/internal/trace"
	"repro/internal/wire"
)

// MaxDatagram is the largest datagram the transport sends or accepts: the
// IPv4 UDP payload ceiling. Frames that encode larger are dropped at the
// sender ("udp.toobig") — a datagram transport cannot fragment frames, and
// detector traffic is orders of magnitude smaller. A frame whose payload type
// wire cannot encode at all is dropped as "udp.unencodable".
const MaxDatagram = 65507

// Config parameterizes a Transport.
type Config struct {
	// N is the number of processes.
	N int
	// Self, when non-zero, puts the transport in single-process mode: this
	// OS process hosts only process Self. One socket is bound (at Bind) and
	// the other N−1 processes are reached at the addresses in Peers —
	// cmd/ecnode mode. Zero (the default) is all-in-one mode: every process
	// gets its own loopback socket in this OS process — what the tests and
	// experiments use.
	Self dsys.ProcessID
	// Bind is the local bind address (default "127.0.0.1:0"). In all-in-one
	// mode every process binds it, so the port must stay ephemeral there; in
	// single-process mode it is typically the fixed host:port the other
	// processes have in their Peers maps. UDP and TCP port spaces are
	// disjoint, so a mixed mesh binds the SAME host:port as its TCP listener
	// and needs no extra address book.
	Bind string
	// Peers maps remote process ids to their datagram addresses
	// (single-process mode only).
	Peers map[dsys.ProcessID]string
	// Trace receives link events ("udp.reorder", "udp.badframe",
	// "udp.toobig", "udp.unencodable", "udp.rebind", "udp.rebindfail").
	// Optional.
	Trace *trace.Collector
	// Seed drives the ReorderP rolls and hold-back draws.
	Seed int64
	// ReorderP holds each datagram back with this probability: the victim
	// is deferred by 1ms plus a uniform draw from [0, ReorderWindow), so
	// datagrams sent to the same destination in the meantime overtake it —
	// genuine reordering, which TCP never shows an application
	// ("udp.reorder").
	ReorderP float64
	// ReorderWindow bounds how long a held-back datagram is deferred
	// (default 20ms when ReorderP > 0).
	ReorderWindow time.Duration
}

// Transport is the datagram engine: local sockets, read loops, and a
// fire-and-forget send path.
type Transport struct {
	cfg    Config
	epoch  time.Time
	inject func(*dsys.Message) // set by Start, before any read loop runs

	stopped atomic.Bool
	crashed []atomic.Bool                 // by id-1
	conns   []atomic.Pointer[net.UDPConn] // local sockets by id-1; nil for remote ids

	sent      atomic.Int64
	sentBytes atomic.Int64
	received  atomic.Int64

	mu    sync.Mutex
	addrs []*net.UDPAddr // dial targets by id-1
	wg    sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand // ReorderP rolls, drawn from every sender; nil when ReorderP is 0
}

// encBufPool holds send-path encode buffers; immediate (undelayed) sends are
// allocation-free in steady state.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 2<<10); return &b }}

// NewTransport binds the local sockets. Nothing is read from them until
// Start; datagrams arriving before that wait in the socket buffers.
func NewTransport(cfg Config) (*Transport, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("udpnet: N must be at least 1")
	}
	if cfg.Self != 0 && (cfg.Self < 1 || int(cfg.Self) > cfg.N) {
		return nil, fmt.Errorf("udpnet: Self %v out of range 1..%d", cfg.Self, cfg.N)
	}
	if cfg.Bind == "" {
		cfg.Bind = "127.0.0.1:0"
	}
	if cfg.ReorderP < 0 || cfg.ReorderP > 1 {
		return nil, fmt.Errorf("udpnet: ReorderP = %v outside [0, 1]", cfg.ReorderP)
	}
	if cfg.ReorderWindow < 0 {
		return nil, fmt.Errorf("udpnet: ReorderWindow = %v below 0", cfg.ReorderWindow)
	}
	if cfg.ReorderP > 0 && cfg.ReorderWindow == 0 {
		cfg.ReorderWindow = 20 * time.Millisecond
	}
	t := &Transport{
		cfg:     cfg,
		epoch:   time.Now(),
		crashed: make([]atomic.Bool, cfg.N),
		conns:   make([]atomic.Pointer[net.UDPConn], cfg.N),
		addrs:   make([]*net.UDPAddr, cfg.N),
	}
	if cfg.ReorderP > 0 {
		t.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	for i := 0; i < cfg.N; i++ {
		id := dsys.ProcessID(i + 1)
		if cfg.Self != 0 && id != cfg.Self {
			// Remote process: resolve its dial target if configured.
			if peer, ok := cfg.Peers[id]; ok {
				ua, err := net.ResolveUDPAddr("udp", peer)
				if err != nil {
					t.Stop()
					return nil, fmt.Errorf("udpnet: peer %v address %q: %w", id, peer, err)
				}
				t.addrs[i] = ua
			}
			continue
		}
		ua, err := net.ResolveUDPAddr("udp", cfg.Bind)
		if err != nil {
			t.Stop()
			return nil, fmt.Errorf("udpnet: bind address %q: %w", cfg.Bind, err)
		}
		conn, err := net.ListenUDP("udp", ua)
		if err != nil {
			t.Stop()
			return nil, fmt.Errorf("udpnet: bind %q for p%d: %w", cfg.Bind, i+1, err)
		}
		t.conns[i].Store(conn)
		t.addrs[i] = conn.LocalAddr().(*net.UDPAddr)
	}
	return t, nil
}

// Start starts one read loop per local socket, delivering every valid
// inbound frame to inject (live.Transport).
func (t *Transport) Start(inject func(*dsys.Message)) {
	t.inject = inject
	for i := range t.conns {
		if conn := t.conns[i].Load(); conn != nil {
			t.wg.Add(1)
			go t.readLoop(dsys.ProcessID(i+1), conn)
		}
	}
}

// Addr returns the datagram address process id is reachable at ("" when
// unknown).
func (t *Transport) Addr(id dsys.ProcessID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 1 || int(id) > len(t.addrs) || t.addrs[id-1] == nil {
		return ""
	}
	return t.addrs[id-1].String()
}

// Stats reports cumulative datagram volume: datagrams sent, datagrams
// received (validly decoded), and bytes sent. The mixed-transport cluster
// experiments read it through ecnode's status response to prove heartbeats
// actually flowed over UDP.
func (t *Transport) Stats() (sent, received, bytes int64) {
	return t.sent.Load(), t.received.Load(), t.sentBytes.Load()
}

// onLink records a transport event on the trace collector (nil-safe).
func (t *Transport) onLink(event string, from, to dsys.ProcessID) {
	t.cfg.Trace.OnLink(event, from, to, time.Since(t.epoch))
}

// Crash stops carrying traffic to and from id and closes its local socket
// (live.Transport). Datagrams already in flight to the closed socket
// vanish — the crash semantics the detectors observe.
func (t *Transport) Crash(id dsys.ProcessID) {
	t.crashed[id-1].Store(true)
	if conn := t.conns[id-1].Swap(nil); conn != nil {
		conn.Close()
	}
}

// Stop closes every socket and ends the read loops (live.Transport).
// Idempotent. Reordered datagrams whose timers fire after Stop are discarded
// by the write path.
func (t *Transport) Stop() {
	if !t.stopped.CompareAndSwap(false, true) {
		return
	}
	for i := range t.conns {
		if conn := t.conns[i].Swap(nil); conn != nil {
			conn.Close()
		}
	}
	t.wg.Wait()
}

// Rebind closes and re-binds every local socket on its same address — the
// chaos knob the soak test uses for a mid-run socket close. Datagrams
// arriving in the gap are lost (natural loss); the read loops pick up the
// fresh socket and traffic resumes. Traced as "udp.rebind".
func (t *Transport) Rebind() {
	for i := range t.conns {
		old := t.conns[i].Load()
		if old == nil {
			continue
		}
		addr := old.LocalAddr().(*net.UDPAddr)
		old.Close()
		var fresh *net.UDPConn
		// The port frees asynchronously after Close; retry briefly.
		for attempt := 0; attempt < 100; attempt++ {
			conn, err := net.ListenUDP("udp", addr)
			if err == nil {
				fresh = conn
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if fresh == nil {
			t.onLink("udp.rebindfail", dsys.None, dsys.ProcessID(i+1))
			continue
		}
		if t.stopped.Load() || t.crashed[i].Load() {
			fresh.Close()
			continue
		}
		t.conns[i].Store(fresh)
		t.onLink("udp.rebind", dsys.None, dsys.ProcessID(i+1))
	}
}

// Send transmits one message as one datagram (live.Transport): encode, roll
// the reordering hold-back, write to the destination socket. Never blocks
// beyond the (non-blocking) socket write; a send to a crashed, stopped or
// unknown destination is silently dropped — that IS the delivery contract.
// An undelayed send writes on the caller's goroutine from a pooled buffer;
// a held-back one copies the datagram out and writes from a timer.
func (t *Transport) Send(m dsys.Message) {
	from, to := m.From, m.To
	if t.stopped.Load() || t.crashed[from-1].Load() || t.crashed[to-1].Load() {
		return
	}
	bufp := encBufPool.Get().(*[]byte)
	defer encBufPool.Put(bufp)
	out, err := AppendDatagram((*bufp)[:0], &wire.Frame{From: from, To: to, Kind: m.Kind, Payload: m.Payload})
	if err != nil {
		if errors.Is(err, wire.ErrUnregistered) {
			t.onLink("udp.unencodable", from, to)
		} else {
			t.onLink("udp.toobig", from, to)
		}
		return
	}
	*bufp = out[:0]
	if hold := t.holdBack(); hold > 0 {
		t.onLink("udp.reorder", from, to)
		held := append([]byte(nil), out...)
		time.AfterFunc(hold, func() { t.write(from, to, held) })
		return
	}
	t.write(from, to, out)
}

// holdBack rolls ReorderP and returns how long to defer the datagram: 1ms
// plus a draw from [0, ReorderWindow) when it is held back, else 0.
func (t *Transport) holdBack() time.Duration {
	if t.cfg.ReorderP <= 0 {
		return 0
	}
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	if t.rng.Float64() >= t.cfg.ReorderP {
		return 0
	}
	return time.Duration(t.rng.Int63n(int64(t.cfg.ReorderWindow))) + time.Millisecond
}

// write puts one encoded datagram on the wire. All failure modes — stopped
// transport, crashed endpoint, missing peer address, socket error — degrade
// to loss, never to an error: datagram delivery is best-effort by contract.
func (t *Transport) write(from, to dsys.ProcessID, data []byte) {
	if t.stopped.Load() || t.crashed[from-1].Load() || t.crashed[to-1].Load() {
		return
	}
	src := from
	if t.cfg.Self != 0 {
		src = t.cfg.Self
	}
	conn := t.conns[src-1].Load()
	if conn == nil {
		return
	}
	t.mu.Lock()
	dst := t.addrs[to-1]
	t.mu.Unlock()
	if dst == nil {
		return
	}
	if _, err := conn.WriteToUDP(data, dst); err != nil {
		return // socket closed under us (Crash/Stop/Rebind): natural loss
	}
	t.sent.Add(1)
	t.sentBytes.Add(int64(len(data)))
}

// readLoop receives datagrams addressed to process id, decodes and
// validates them, and injects them into the cluster. A read error checks for
// a rebound socket (Rebind) before giving up.
func (t *Transport) readLoop(id dsys.ProcessID, conn *net.UDPConn) {
	defer t.wg.Done()
	buf := make([]byte, MaxDatagram+1)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			fresh := t.awaitConn(id, conn)
			if fresh == nil {
				return
			}
			conn = fresh
			continue
		}
		f, derr := DecodeDatagram(buf[:n])
		if derr != nil {
			t.onLink("udp.badframe", dsys.None, id)
			continue
		}
		// A frame addressed to some other process arriving on this socket is
		// as invalid as an out-of-range sender.
		if f.From < 1 || int(f.From) > t.cfg.N || f.To != id {
			t.onLink("udp.badframe", f.From, id)
			continue
		}
		t.received.Add(1)
		t.inject(&dsys.Message{From: f.From, To: f.To, Kind: f.Kind, Payload: f.Payload})
	}
}

// awaitConn waits briefly for Rebind to publish a fresh socket for id after
// a read error; nil means the transport (or this process) is done.
func (t *Transport) awaitConn(id dsys.ProcessID, old *net.UDPConn) *net.UDPConn {
	for attempt := 0; attempt < 400; attempt++ {
		if t.stopped.Load() || t.crashed[id-1].Load() {
			return nil
		}
		if c := t.conns[id-1].Load(); c != nil && c != old {
			return c
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// AppendDatagram appends the full datagram encoding of f to dst — identical
// bytes to what tcpnet would write on a stream for the same frame — and
// enforces the datagram size ceiling.
func AppendDatagram(dst []byte, f *wire.Frame) ([]byte, error) {
	start := len(dst)
	out, err := wire.AppendFrame(dst, f)
	if err != nil {
		return dst[:start], err
	}
	if len(out)-start > MaxDatagram {
		return dst[:start], fmt.Errorf("udpnet: frame encodes to %d bytes, above MaxDatagram (%d)", len(out)-start, MaxDatagram)
	}
	return out, nil
}

// DecodeDatagram decodes one received datagram: the 4-byte length prefix
// must agree exactly with the datagram's actual size (a disagreement means
// truncation or corruption), the body must decode, and wire.DecodeFrame's
// trailing-bytes rejection enforces one frame per datagram. Hostile input
// returns an error wrapping wire.ErrMalformed and never panics.
func DecodeDatagram(b []byte) (wire.Frame, error) {
	if len(b) < 4 {
		return wire.Frame{}, fmt.Errorf("%w: datagram %d bytes, below the 4-byte length prefix", wire.ErrMalformed, len(b))
	}
	n := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	if n > wire.MaxFrameLen {
		return wire.Frame{}, fmt.Errorf("%w: length prefix %d exceeds MaxFrameLen", wire.ErrMalformed, n)
	}
	if int64(n) != int64(len(b)-4) {
		return wire.Frame{}, fmt.Errorf("%w: length prefix %d disagrees with datagram body %d", wire.ErrMalformed, n, len(b)-4)
	}
	return wire.DecodeFrame(b[4:])
}
