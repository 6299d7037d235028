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
// Drops, delays, duplication and partitions are not the transport's
// business: Config.Network gives the cluster a network.Network model, which
// plans every message before it reaches the transport, as it does on the
// simulator. The one fault left here acts on sockets: Config.ResetP forces
// connection resets.
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
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/network"
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
	// Network, if set, is the link model New gives the cluster: it plans
	// drops, delays, duplication and partitions for every message, before
	// the message reaches either carrier (live.Config.Network). Nil leaves
	// every message to the sockets.
	Network network.Network
	// Seed drives Network's randomness and the ResetP rolls.
	Seed int64
	// ResetP forcibly closes the outbound connection after a successfully
	// written frame with this probability ("tcp.reset"). The writer
	// reconnects with backoff and later frames flow again; frames lost in
	// the teardown window are fair loss, not permanent loss.
	ResetP float64
	// Datagram, if set, is a second transport (a udpnet.Transport) that
	// carries the message kinds listed in DatagramKinds instead of the TCP
	// streams — typically the failure detectors' heartbeat/ring-beat
	// traffic, which is loss-tolerant by design (the paper's Section 4 link
	// model for the leader is fair-lossy) and gains nothing from TCP's
	// reliability while paying for its head-of-line blocking. Control
	// traffic (rbcast, consensus, replicated log) keeps flowing over TCP.
	// The TCP transport starts, crashes and stops it with itself, so its
	// inbound datagrams go to the same Cluster.Inject. Network plans the
	// datagram kinds like every other message; a model that should treat
	// them apart can tell them by the kind Plan receives.
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
		Network:   cfg.Network,
		Seed:      cfg.Seed,
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
	if cfg.ResetP < 0 || cfg.ResetP > 1 {
		return nil, fmt.Errorf("tcpnet: ResetP = %v outside [0, 1]", cfg.ResetP)
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

// Send hands the frame to the destination's outbound queue, or the
// datagram transport for its kinds (live.Transport). It never blocks on the
// network.
func (t *Transport) Send(msg dsys.Message) {
	if t.dgKinds[msg.Kind] {
		t.cfg.Datagram.Send(msg)
		return
	}
	pr := t.peer(msg.To, msg.From)
	if pr == nil {
		return
	}
	pr.enqueue(outFrame{f: wire.Frame{From: msg.From, To: msg.To, Kind: msg.Kind, Payload: msg.Payload}})
}
