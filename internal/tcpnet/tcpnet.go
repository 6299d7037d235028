// Package tcpnet runs a live cluster over real TCP connections: every
// process gets a listener, peers dial a full mesh lazily, and messages
// travel length-prefixed binary frames (package wire) through the operating
// system's network stack. It is the most "production-shaped" substrate in
// the repository — the detectors and consensus algorithms run on it
// unchanged, with real sockets providing the asynchrony.
//
// Transport is the socket machinery, a live.Transport like
// udpnet.Transport: live.NewCluster(live.Config{N, Trace, Transport: tr})
// runs a cluster over it. New builds the two together and returns the Mesh
// handle, which adds the TCP-only controls (Addr, SetPeerAddr, WireStats,
// ResetConns).
//
// A mesh runs in one of two modes. All-in-one (the default): all N
// processes live in this OS process, each on its own ephemeral loopback
// listener — what the tests and experiments use. Single-process
// (Config.Self set): this OS process hosts exactly one process of the
// cluster, binds Config.Bind, and reaches the other N−1 processes at
// configured addresses (Config.Peers / SetPeerAddr) — what cmd/ecnode uses
// to run one cluster across real OS processes and machines.
//
// # Delivery semantics
//
// Sends are asynchronous: each destination has a bounded outbound queue
// drained by a dedicated writer goroutine, so a protocol task is never
// blocked by TCP backpressure or a slow dial. The writer drains up to
// batchLen queued frames per wakeup and writes them through a pooled
// bufio.Writer with a single flush — one syscall carries a burst instead of
// one per frame. When the queue overflows the OLDEST frame is dropped
// (periodic protocol traffic makes the newest frame the valuable one). When a
// connection breaks the writer reconnects with exponential backoff and keeps
// draining; every frame of the broken batch is retried exactly once on the
// fresh connection (in order), after which it is dropped. Frames already
// flushed into the kernel when the break hit may additionally be delivered —
// so a break can duplicate at most one batch, never reorder a sender's frames
// and never lose a frame silently more than once. The transport therefore
// guarantees fair-lossy links — of infinitely many sends, infinitely many
// arrive — which is exactly the assumption the paper's detectors and
// consensus need (Section 4), and it never silently goes permanently dark
// after a transient fault.
//
// Faults (drops, duplication, partitions, forced resets) can be injected
// deliberately via Config.Faults; see the Faults type.
//
// # Encoding
//
// Every frame is encoded by package wire, which is also where payload types
// are registered; the transport itself knows no protocol. A frame whose
// payload wire cannot encode (an unregistered type, a body over
// wire.MaxFrameLen) is dropped at the writer and traced ("tcp.unencodable")
// without touching the connection. A malformed or out-of-range frame arriving
// at a listener is dropped and traced ("tcp.badframe"), never panics the
// process.
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Config parameterizes a TCP mesh.
type Config struct {
	// N is the number of processes.
	N int
	// Self, when non-zero, puts the mesh in single-process mode: this OS
	// process hosts only process Self. One listener is bound (at Bind) and
	// the other N−1 processes are assumed to live in other OS processes,
	// dialed at the addresses in Peers. Zero (the default) keeps the
	// historical all-in-one mode: every process of the mesh lives in this
	// OS process on its own loopback listener — which is what the
	// experiments and tests use.
	Self dsys.ProcessID
	// Bind is the local listen address (default "127.0.0.1:0"). In
	// all-in-one mode every process binds it, so the port must stay
	// ephemeral there; in single-process mode it is typically the fixed
	// host:port the other processes have in their Peers maps.
	Bind string
	// Advertise overrides the address Addr reports for a locally bound
	// process (default: the listener's actual address). Useful when peers
	// reach this process through an address other than the bound one.
	Advertise string
	// Peers maps remote process ids to their dial addresses
	// (single-process mode only). An id may be omitted and supplied later
	// via SetPeerAddr; until then frames to it wait in its bounded
	// outbound queue while the writer's dial fails and backs off.
	Peers map[dsys.ProcessID]string
	// Trace receives message, crash and transport-link events. Optional.
	Trace *trace.Collector
	// Log receives task debug output. Optional.
	Log io.Writer
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// QueueLen bounds each per-destination outbound queue (default 1024).
	// On overflow the oldest queued frame is dropped ("tcp.overflow").
	QueueLen int
	// Faults, if set, injects transport faults (drops, duplication,
	// partitions, forced connection resets). Nil means a clean mesh.
	Faults *Faults
	// Datagram, if set, is a second transport (a udpnet.Transport) that
	// carries the message kinds listed in DatagramKinds instead of the TCP
	// streams — typically the failure detectors' heartbeat/ring-beat
	// traffic, which is loss-tolerant by design (the paper's Section 4 link
	// model for the leader is fair-lossy) and gains nothing from TCP's
	// reliability while paying for its head-of-line blocking. Control
	// traffic (rbcast, consensus, replicated log) keeps flowing over TCP.
	// The TCP transport starts, crashes and stops it with itself, so its
	// inbound datagrams go to the same Cluster.Inject. The TCP Faults do not
	// apply to datagram kinds; the datagram transport has its own.
	Datagram live.Transport
	// DatagramKinds lists the message kinds routed over Datagram. Required
	// (non-empty) when Datagram is set.
	DatagramKinds []string
}

// dialFunc produces outbound connections; a test hook substitutes
// fault-injecting fakes for deterministic break/retry coverage.
type dialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// Transport is the TCP socket machinery — listeners, per-destination
// outbound queues and writers, read loops — as a live.Transport.
type Transport struct {
	cfg       Config
	epoch     time.Time
	inject    func(*dsys.Message) // set by Start, before any read loop runs
	listeners []net.Listener
	dial      dialFunc

	// Send-path state is read lock-free: Send runs on every protocol task
	// concurrently, and the CT-style ◇P workload calls it n²−n times per
	// period — a transport-wide mutex there serializes the whole cluster.
	stopped atomic.Bool
	crashed []atomic.Bool          // by id-1
	peerTab []atomic.Pointer[peer] // by destination id-1; nil until first use

	// dgKinds indexes Config.DatagramKinds; nil unless a datagram transport
	// is configured. Read lock-free on the send path.
	dgKinds map[string]bool

	// Cumulative outbound volume, for WireStats.
	wireFrames atomic.Int64
	wireBytes  atomic.Int64

	mu      sync.Mutex
	addrs   []string
	inbound map[net.Conn]dsys.ProcessID
	wg      sync.WaitGroup
}

// Mesh is a live cluster whose messages flow over TCP: a Transport and the
// live.Cluster it carries, built together by New.
type Mesh struct {
	tr      *Transport
	cluster *live.Cluster
}

// New builds the mesh: a Transport and a live cluster over it. Processes are
// added with Spawn, exactly as with live.Cluster.
func New(cfg Config) (*Mesh, error) {
	tr, err := NewTransport(cfg)
	if err != nil {
		return nil, err
	}
	return &Mesh{tr: tr, cluster: live.NewCluster(live.Config{
		N:         cfg.N,
		Trace:     cfg.Trace,
		Log:       cfg.Log,
		Transport: tr,
	})}, nil
}

// NewTransport binds one listener per local process. Connections are
// accepted from Start on; until then they wait in the listen backlog.
func NewTransport(cfg Config) (*Transport, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("tcpnet: N must be at least 1")
	}
	if cfg.Self != 0 && (cfg.Self < 1 || int(cfg.Self) > cfg.N) {
		return nil, fmt.Errorf("tcpnet: Self %v out of range 1..%d", cfg.Self, cfg.N)
	}
	if cfg.Bind == "" {
		cfg.Bind = "127.0.0.1:0"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.init(); err != nil {
			return nil, err
		}
	}
	if cfg.Datagram != nil && len(cfg.DatagramKinds) == 0 {
		return nil, fmt.Errorf("tcpnet: Datagram set without DatagramKinds")
	}
	t := &Transport{
		cfg:       cfg,
		epoch:     time.Now(),
		listeners: make([]net.Listener, cfg.N),
		crashed:   make([]atomic.Bool, cfg.N),
		peerTab:   make([]atomic.Pointer[peer], cfg.N),
		addrs:     make([]string, cfg.N),
		inbound:   make(map[net.Conn]dsys.ProcessID),
	}
	t.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	}
	if cfg.Datagram != nil {
		t.dgKinds = make(map[string]bool, len(cfg.DatagramKinds))
		for _, k := range cfg.DatagramKinds {
			t.dgKinds[k] = true
		}
	}
	for i := 0; i < cfg.N; i++ {
		id := dsys.ProcessID(i + 1)
		if cfg.Self != 0 && id != cfg.Self {
			// Remote process: its address comes from the config (or later
			// from SetPeerAddr); nothing to bind here.
			t.addrs[i] = cfg.Peers[id]
			continue
		}
		ln, err := net.Listen("tcp", cfg.Bind)
		if err != nil {
			t.Stop()
			return nil, fmt.Errorf("tcpnet: listen %q for p%d: %w", cfg.Bind, i+1, err)
		}
		t.listeners[i] = ln
		t.addrs[i] = ln.Addr().String()
		if cfg.Self != 0 && cfg.Advertise != "" {
			t.addrs[i] = cfg.Advertise
		}
	}
	return t, nil
}

// Start starts the accept loops, delivering every valid inbound frame to
// inject, and starts the datagram transport with the same inject
// (live.Transport).
func (t *Transport) Start(inject func(*dsys.Message)) {
	t.inject = inject
	for i, ln := range t.listeners {
		if ln != nil {
			t.wg.Add(1)
			go t.acceptLoop(dsys.ProcessID(i+1), ln)
		}
	}
	if t.cfg.Datagram != nil {
		t.cfg.Datagram.Start(inject)
	}
}

// Cluster returns the underlying live cluster (for Now, Crashed, etc.).
func (m *Mesh) Cluster() *live.Cluster { return m.cluster }

// Addr returns the TCP address process id listens on.
func (m *Mesh) Addr(id dsys.ProcessID) string { return m.tr.Addr(id) }

// Addr returns the TCP address process id listens on — in single-process
// mode, the dial target for a remote id.
func (t *Transport) Addr(id dsys.ProcessID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[id-1]
}

// setAddr rewrites the dial target for id (SetPeerAddr; tests redirect
// addresses to exercise unreachable-peer behaviour).
func (t *Transport) setAddr(id dsys.ProcessID, addr string) {
	t.mu.Lock()
	t.addrs[id-1] = addr
	t.mu.Unlock()
}

// SetPeerAddr supplies (or rewrites) the dial address of a remote process in
// single-process mode — for peers whose address was unknown when the mesh
// was built. Writers pick the new address up on their next dial attempt, so
// frames queued while the peer was unreachable flow as soon as the address
// resolves.
func (m *Mesh) SetPeerAddr(id dsys.ProcessID, addr string) error {
	cfg := &m.tr.cfg
	if id < 1 || int(id) > cfg.N {
		return fmt.Errorf("tcpnet: SetPeerAddr: process id %v out of range 1..%d", id, cfg.N)
	}
	if cfg.Self == 0 {
		return fmt.Errorf("tcpnet: SetPeerAddr is only meaningful in single-process mode")
	}
	if id == cfg.Self {
		return fmt.Errorf("tcpnet: SetPeerAddr: %v is the local process", id)
	}
	m.tr.setAddr(id, addr)
	return nil
}

// WireStats reports cumulative outbound transport volume — frames written and
// bytes put on the wire by every peer writer since the mesh started. E15 uses
// it to report the per-frame encoding cost.
func (m *Mesh) WireStats() (frames, bytes int64) {
	return m.tr.wireFrames.Load(), m.tr.wireBytes.Load()
}

// ResetConns forcibly closes every currently open outbound connection in the
// mesh (traced as "tcp.reset"). Writers reconnect with backoff and traffic
// resumes — the chaos knob used by the soak tests to exercise recovery.
func (m *Mesh) ResetConns() {
	for i := range m.tr.peerTab {
		if pr := m.tr.peerTab[i].Load(); pr != nil {
			pr.resetConn()
		}
	}
}

// Spawn starts a task of process id. In single-process mode only the local
// process (Config.Self) can host tasks.
func (m *Mesh) Spawn(id dsys.ProcessID, name string, fn dsys.TaskFunc) {
	if self := m.tr.cfg.Self; self != 0 && id != self {
		panic(fmt.Sprintf("tcpnet: single-process mesh hosts only %v; cannot spawn tasks of %v", self, id))
	}
	m.cluster.Spawn(id, name, fn)
}

// Crash permanently crashes process id (live.Cluster.Crash): its tasks are
// unwound, its listener and connections close, and the mesh stops carrying
// traffic to and from it.
func (m *Mesh) Crash(id dsys.ProcessID) { m.cluster.Crash(id) }

// Stop unwinds the cluster and closes every socket (live.Cluster.Stop).
func (m *Mesh) Stop() { m.cluster.Stop() }

// onLink records a transport event on the trace collector (nil-safe).
func (t *Transport) onLink(event string, from, to dsys.ProcessID) {
	t.cfg.Trace.OnLink(event, from, to, time.Since(t.epoch))
}

// Crash closes id's listener, its inbound connections and the outbound
// queue to it, and stops carrying traffic to and from it (live.Transport).
func (t *Transport) Crash(id dsys.ProcessID) {
	t.crashed[id-1].Store(true)
	t.mu.Lock()
	ln := t.listeners[id-1]
	pr := t.peerTab[id-1].Swap(nil)
	var ins []net.Conn
	for c, owner := range t.inbound {
		if owner == id {
			ins = append(ins, c)
		}
	}
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if pr != nil {
		pr.close()
	}
	for _, c := range ins {
		c.Close()
	}
	if t.cfg.Datagram != nil {
		t.cfg.Datagram.Crash(id)
	}
}

// Stop closes every socket and waits for the writers and read loops to end
// (live.Transport). Idempotent.
func (t *Transport) Stop() {
	if !t.stopped.CompareAndSwap(false, true) {
		return
	}
	t.mu.Lock()
	var prs []*peer
	for i := range t.peerTab {
		if pr := t.peerTab[i].Swap(nil); pr != nil {
			prs = append(prs, pr)
		}
	}
	ins := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		ins = append(ins, c)
	}
	t.mu.Unlock()
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	for _, pr := range prs {
		pr.close()
	}
	for _, c := range ins {
		c.Close()
	}
	if t.cfg.Datagram != nil {
		t.cfg.Datagram.Stop()
	}
	t.wg.Wait()
}

// Send applies injected faults, then hands the frame to the destination's
// outbound queue (live.Transport). It never blocks on the network.
func (t *Transport) Send(msg dsys.Message) {
	if t.dgKinds[msg.Kind] {
		// Detector traffic rides the datagram transport (its own Faults apply
		// there); the TCP faults only shape stream traffic.
		t.cfg.Datagram.Send(msg)
		return
	}
	if fa := t.cfg.Faults; fa != nil {
		if fa.Partitioned(msg.From, msg.To) {
			t.onLink("tcp.cut", msg.From, msg.To)
			return
		}
		if fa.Chance(fa.DropP) {
			t.onLink("tcp.drop", msg.From, msg.To)
			return
		}
	}
	pr := t.peer(msg.To, msg.From)
	if pr == nil {
		return
	}
	f := wire.Frame{From: msg.From, To: msg.To, Kind: msg.Kind, Payload: msg.Payload}
	pr.enqueue(outFrame{f: f})
	if fa := t.cfg.Faults; fa != nil && fa.Chance(fa.DupP) {
		t.onLink("tcp.dup", msg.From, msg.To)
		pr.enqueue(outFrame{f: f})
	}
}

// peer returns (creating on first use) the outbound queue for destination
// to, or nil when the transport is stopped or either endpoint has crashed.
// The steady-state path is three atomic loads — the transport mutex is only
// taken to create a destination's queue the first time anyone sends to it.
func (t *Transport) peer(to, from dsys.ProcessID) *peer {
	if t.stopped.Load() || t.crashed[to-1].Load() || t.crashed[from-1].Load() {
		return nil
	}
	if pr := t.peerTab[to-1].Load(); pr != nil {
		return pr
	}
	return t.peerSlow(to)
}

// peerSlow creates the destination's queue under the transport lock,
// re-checking liveness so a racing Crash/Stop cannot resurrect a closed
// destination.
func (t *Transport) peerSlow(to dsys.ProcessID) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped.Load() || t.crashed[to-1].Load() {
		return nil
	}
	if pr := t.peerTab[to-1].Load(); pr != nil {
		return pr
	}
	pr := newPeer(t, to)
	t.peerTab[to-1].Store(pr)
	t.wg.Add(1)
	go pr.run()
	return pr
}

// registerInbound tracks an accepted connection so Crash/Stop can close it;
// reports false (and closes the conn) when its listener's process is gone.
func (t *Transport) registerInbound(conn net.Conn, owner dsys.ProcessID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped.Load() || t.crashed[owner-1].Load() {
		conn.Close()
		return false
	}
	t.inbound[conn] = owner
	return true
}

func (t *Transport) unregisterInbound(conn net.Conn) {
	t.mu.Lock()
	delete(t.inbound, conn)
	t.mu.Unlock()
}

// acceptLoop receives connections addressed to process id and decodes
// frames into the cluster.
func (t *Transport) acceptLoop(id dsys.ProcessID, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (crash or stop)
		}
		if !t.registerInbound(conn, id) {
			continue
		}
		t.wg.Add(1)
		go t.readLoop(id, conn)
	}
}

// readLoop decodes frames off one accepted connection into the cluster. A
// frame from an out-of-range sender, or addressed to some other process than
// this listener's, is dropped and traced; a stream whose framing goes bad is
// dropped whole (resynchronization is impossible once a length prefix is
// suspect); only connection teardown ends the loop silently.
func (t *Transport) readLoop(id dsys.ProcessID, conn net.Conn) {
	defer t.wg.Done()
	defer t.unregisterInbound(conn)
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 32<<10)
	var buf []byte
	var ar msgArena
	for {
		f, b, err := wire.ReadFrame(br, buf)
		buf = b
		if err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				t.onLink("tcp.badframe", f.From, id)
			}
			return
		}
		if f.From < 1 || int(f.From) > t.cfg.N || f.To != id {
			t.onLink("tcp.badframe", f.From, id)
			continue
		}
		t.inject(ar.new(dsys.Message{From: f.From, To: f.To, Kind: f.Kind, Payload: f.Payload}))
	}
}

// msgArena chunk-allocates the dsys.Messages a read loop delivers: one heap
// allocation per arenaChunk messages instead of one per message — the last
// per-message allocation on the receive path. Each read loop owns its arena
// (single goroutine, no locking). A chunk is garbage once all of its messages
// are; a long-retained message pins at most arenaChunk-1 siblings (~4KB),
// which is cheap against the allocator pressure of the n²-heartbeat path.
type msgArena struct {
	chunk []dsys.Message
}

const arenaChunk = 64

func (a *msgArena) new(msg dsys.Message) *dsys.Message {
	if len(a.chunk) == 0 {
		a.chunk = make([]dsys.Message, arenaChunk)
	}
	m := &a.chunk[0]
	a.chunk = a.chunk[1:]
	*m = msg
	return m
}

// outFrame is one queued outbound frame. retried marks that one delivery
// attempt already failed, bounding redelivery effort: a frame is retried at
// most once before it is dropped ("tcp.lost"), which keeps the link fair-lossy
// without letting a flapping connection wedge the writer forever.
type outFrame struct {
	f       wire.Frame
	retried bool
}

const (
	// batchLen bounds how many queued frames one writer wakeup drains and
	// flushes as a single buffered write.
	batchLen = 64
	// The reconnect backoff doubles from initialBackoff up to maxBackoff.
	initialBackoff = 5 * time.Millisecond
	maxBackoff     = 500 * time.Millisecond
)

// Pools shared by all peer writers: encode buffers (one live per connected
// writer) and the bufio.Writers wrapping outbound connections. Meshes come
// and go in tests and experiments; pooling keeps the per-connection setup
// allocation-free in steady state.
var (
	encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}
	bwPool     = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 32<<10) }}
)

// peer owns the outbound path to one destination: a bounded FIFO queue and
// a writer goroutine that dials (and redials, with exponential backoff) the
// destination's listener and writes frames in batches. Protocol tasks only
// ever touch the queue, so TCP backpressure and dial latency never block a
// send.
type peer struct {
	t  *Transport
	to dsys.ProcessID

	mu       sync.Mutex
	cond     *sync.Cond
	q        []outFrame
	closed   bool
	conn     net.Conn // current live connection, nil while disconnected
	closedCh chan struct{}
}

func newPeer(t *Transport, to dsys.ProcessID) *peer {
	pr := &peer{t: t, to: to, closedCh: make(chan struct{})}
	pr.cond = sync.NewCond(&pr.mu)
	return pr
}

// enqueue appends a frame, dropping the oldest queued frame on overflow.
func (pr *peer) enqueue(of outFrame) {
	pr.mu.Lock()
	if pr.closed {
		pr.mu.Unlock()
		return
	}
	if len(pr.q) >= pr.t.cfg.QueueLen {
		old := pr.q[0]
		pr.q = pr.q[1:]
		pr.t.onLink("tcp.overflow", old.f.From, pr.to)
	}
	pr.q = append(pr.q, of)
	pr.cond.Signal()
	pr.mu.Unlock()
}

// awaitFrames blocks until at least one frame is queued, WITHOUT dequeuing
// anything — frames stay in the queue (where overflow accounting sees them)
// until the writer has a live connection to put them on.
func (pr *peer) awaitFrames() bool {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for len(pr.q) == 0 && !pr.closed {
		pr.cond.Wait()
	}
	return !pr.closed
}

// drain moves up to batchLen queued frames into dst (reused across
// calls), compacting the queue. Reports false when the peer closed.
func (pr *peer) drain(dst []outFrame) ([]outFrame, bool) {
	dst = dst[:0]
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.closed {
		return dst, false
	}
	n := min(len(pr.q), batchLen)
	dst = append(dst, pr.q[:n]...)
	rem := copy(pr.q, pr.q[n:])
	// Zero the vacated tail so shifted-out frames don't pin their payloads.
	for i := rem; i < len(pr.q); i++ {
		pr.q[i] = outFrame{}
	}
	pr.q = pr.q[:rem]
	return dst, true
}

// close shuts the peer down: the writer exits, queued frames are discarded,
// any live connection is closed.
func (pr *peer) close() {
	pr.mu.Lock()
	if pr.closed {
		pr.mu.Unlock()
		return
	}
	pr.closed = true
	conn := pr.conn
	pr.conn = nil
	pr.q = nil
	pr.cond.Broadcast()
	pr.mu.Unlock()
	close(pr.closedCh)
	if conn != nil {
		conn.Close()
	}
}

// resetConn forcibly closes the current connection (if any); the writer
// notices on its next write and redials.
func (pr *peer) resetConn() {
	pr.mu.Lock()
	conn := pr.conn
	pr.mu.Unlock()
	if conn != nil {
		pr.t.onLink("tcp.reset", dsys.None, pr.to)
		conn.Close()
	}
}

// swapConn publishes the writer's current connection (for resetConn /
// close) and returns it, unless the peer is already closed — then the
// connection is closed immediately and nil is returned.
func (pr *peer) swapConn(conn net.Conn) net.Conn {
	pr.mu.Lock()
	if pr.closed {
		pr.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		return nil
	}
	pr.conn = conn
	pr.mu.Unlock()
	return conn
}

// peerWriter is the writer goroutine's connection state: the live conn plus
// the pooled buffered writer and batch encode buffer on top of it.
type peerWriter struct {
	pr     *peer
	conn   net.Conn
	bw     *bufio.Writer // pooled, wraps conn
	encBuf *[]byte       // pooled batch encode buffer
	ends   []int         // per-frame end offsets into encBuf
}

// run is the writer goroutine: await traffic, (re)connect, drain a batch,
// write it with one flush. Frames that survive a broken attempt stay in
// pending (ahead of newer queue traffic, preserving per-sender order).
func (pr *peer) run() {
	defer pr.t.wg.Done()
	w := peerWriter{pr: pr}
	w.encBuf = encBufPool.Get().(*[]byte)
	defer func() {
		w.teardown()
		encBufPool.Put(w.encBuf)
	}()
	backoff := initialBackoff
	var pending []outFrame
	for {
		if len(pending) == 0 {
			if !pr.awaitFrames() {
				return
			}
		}
		if w.conn == nil {
			if !w.connect(&backoff) {
				return // closed while reconnecting; pending frames lost
			}
		}
		if len(pending) == 0 {
			var ok bool
			pending, ok = pr.drain(pending)
			if !ok {
				return
			}
			if len(pending) == 0 {
				continue
			}
		}
		pending = w.writeBatch(pending)
	}
}

// connect dials the destination until it succeeds or the peer is closed,
// sleeping *backoff (doubled up to the cap) between failed attempts. On
// success the backoff resets, the connection is published, and the buffered
// writer is armed. Go dials TCP with TCP_NODELAY on, which is what a batched
// writer wants: every flush is already a coalesced segment.
func (w *peerWriter) connect(backoff *time.Duration) bool {
	pr, t := w.pr, w.pr.t
	for {
		select {
		case <-pr.closedCh:
			return false
		default:
		}
		conn, err := t.dial(t.Addr(pr.to), t.cfg.DialTimeout)
		if err == nil {
			if pr.swapConn(conn) == nil {
				return false
			}
			t.onLink("tcp.dial", dsys.None, pr.to)
			*backoff = initialBackoff
			w.conn = conn
			w.bw = bwPool.Get().(*bufio.Writer)
			w.bw.Reset(conn)
			return true
		}
		t.onLink("tcp.dialfail", dsys.None, pr.to)
		t := time.NewTimer(*backoff)
		select {
		case <-t.C:
		case <-pr.closedCh:
			t.Stop()
			return false
		}
		*backoff = min(*backoff*2, maxBackoff)
	}
}

// teardown closes and unpublishes the connection and returns the pooled
// writer state.
func (w *peerWriter) teardown() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
		w.pr.swapConn(nil)
	}
	if w.bw != nil {
		w.bw.Reset(io.Discard) // drop unflushed bytes before pooling
		bwPool.Put(w.bw)
		w.bw = nil
	}
}

// writeBatch attempts one delivery of batch and returns the frames still
// pending — empty on full success, the retry-once survivors after a break.
// It marshals every frame into the shared encode buffer, hands the spans to
// the buffered writer and flushes once:
//
//   - a frame wire cannot encode (unregistered payload type, body over
//     MaxFrameLen) never will, so it is dropped here with one
//     "tcp.unencodable" — the connection is untouched, marshalling is not a
//     link fault;
//   - a write or flush error is one "tcp.break" and a teardown; every frame
//     of the failed attempt is retried once, in order, ahead of new traffic
//     on the fresh connection, and a frame whose retry also breaks is
//     dropped with "tcp.lost". Frames after the error point were never
//     attempted and stay pristine (no retry consumed).
func (w *peerWriter) writeBatch(batch []outFrame) []outFrame {
	pr, t := w.pr, w.pr.t
	buf := (*w.encBuf)[:0]
	w.ends = w.ends[:0]

	// Marshal pass: frames become byte spans in buf, unencodable ones leave
	// the batch.
	n := 0
	for i := range batch {
		f := &batch[i].f
		out, err := wire.AppendFrame(buf, f)
		if err != nil {
			t.onLink("tcp.unencodable", f.From, pr.to)
			if t.cfg.Log != nil {
				fmt.Fprintf(t.cfg.Log, "tcpnet: %v->%v %q frame dropped: %v\n", f.From, pr.to, f.Kind, err)
			}
			continue
		}
		buf = out
		w.ends = append(w.ends, len(out))
		if n != i {
			batch[n] = batch[i]
		}
		n++
	}
	batch = batch[:n]
	*w.encBuf = buf
	if len(batch) == 0 {
		return batch
	}

	// Write pass: every span through the buffered writer, one flush.
	var werr error
	attempted := len(batch) // frames [0,attempted) are part of this attempt
	failFrom := batch[0].f.From
	start := 0
	for i, end := range w.ends {
		if _, werr = w.bw.Write(buf[start:end]); werr != nil {
			attempted = i + 1
			failFrom = batch[i].f.From
			break
		}
		t.wireFrames.Add(1)
		t.wireBytes.Add(int64(end - start))
		start = end
	}
	if werr == nil {
		werr = w.bw.Flush()
	}

	if werr == nil {
		// Delivered. Roll forced resets per flushed frame.
		if fa := t.cfg.Faults; fa != nil && fa.ResetP > 0 {
			for i := range batch {
				if fa.Chance(fa.ResetP) {
					t.onLink("tcp.reset", batch[i].f.From, pr.to)
					w.teardown()
					break
				}
			}
		}
		return batch[:0]
	}

	// The connection broke with the batch in flight.
	t.onLink("tcp.break", failFrom, pr.to)
	w.teardown()
	keep := batch[:0]
	for i := range batch {
		of := &batch[i]
		if i < attempted {
			if of.retried {
				t.onLink("tcp.lost", of.f.From, pr.to)
				continue
			}
			of.retried = true
		}
		keep = append(keep, *of)
	}
	return keep
}
