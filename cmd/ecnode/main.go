// Command ecnode is one node of a real multi-process cluster: it loads a
// JSON config file (id, peer addresses, detector choice, consensus role),
// joins the TCP mesh in single-process mode, runs the paper's stack — a ◇C
// failure detector, reliable broadcast, and the replicated log driven by ◇C
// consensus — and serves client proposals on a separate port.
//
// Usage:
//
//	ecnode -config node1.json
//
// Config file (see internal/cluster.NodeConfig):
//
//	{
//	  "id": 1,
//	  "n": 5,
//	  "peers": {"1": "127.0.0.1:7101", "2": "127.0.0.1:7102", ...},
//	  "client_addr": "127.0.0.1:7201",
//	  "detector": "ring",          // or "heartbeat"
//	  "role": "replica",           // or "monitor" (detector only)
//	  "heartbeat_transport": "tcp", // or "udp": detector beats as datagrams
//	  "period_ms": 10
//	}
//
// With "heartbeat_transport": "udp" the node binds a datagram socket on the
// same host:port as its TCP mesh listener (the port spaces are disjoint) and
// routes only the detector's periodic kinds over it; consensus, broadcast
// and log transfer stay on TCP. Lost heartbeats are then genuinely lost —
// the fair-lossy model the paper's detectors assume — instead of being
// retransmitted behind the detector's back.
//
// The client protocol is newline-delimited JSON (internal/cluster.Request/
// Response): {"op":"propose","value":"..."} blocks until the value commits
// and returns its slot; {"op":"status"} reports the detector's leader and
// suspect set plus the applied count; {"op":"log"} returns the applied
// payloads in slot order.
//
// SIGINT/SIGTERM shut the node down cleanly via Mesh.Stop — sockets closed,
// writers terminated, tasks unwound. A SIGKILL (what experiment E16 injects)
// is the paper's crash model: no goodbye, survivors must detect it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/ec"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/ring"
	"repro/internal/tcpnet"
	"repro/internal/udpnet"
)

// proposeWait bounds how long a propose request may wait for its commit
// before the node answers with an error (the client can retry; the command
// stays queued and will still be ordered).
const proposeWait = 30 * time.Second

func main() {
	cfgPath := flag.String("config", "", "path to the JSON node config (required)")
	flag.Parse()
	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "ecnode: -config is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := cluster.LoadNodeConfig(*cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecnode: %v\n", err)
		os.Exit(1)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ecnode: %v\n", err)
		os.Exit(1)
	}
}

// node is the shared state between the protocol tasks (running on the mesh)
// and the client-serving goroutines.
type node struct {
	cfg   cluster.NodeConfig
	start time.Time
	udp   *udpnet.Transport // nil unless heartbeat_transport is "udp"

	mu      sync.Mutex
	det     fd.EventuallyConsistent
	rep     *core.Replica
	waiters map[int64]chan int // pending proposals: seq -> committed slot
}

// detectorKinds lists the message kinds the configured detector emits
// periodically — the loss-tolerant traffic that may ride a datagram
// transport. Everything else (consensus, broadcast, log transfer) needs
// reliable delivery and stays on TCP.
func detectorKinds(detector string) []string {
	if detector == cluster.DetectorHeartbeat {
		return []string{heartbeat.KindAlive}
	}
	return []string{ring.KindBeat, ring.KindWatch}
}

func run(cfg cluster.NodeConfig) error {
	meshCfg := tcpnet.Config{
		N:     cfg.N,
		Self:  cfg.Self(),
		Bind:  cfg.MeshAddr(),
		Peers: cfg.PeerAddrs(),
	}
	var udp *udpnet.Transport
	if cfg.HeartbeatTransport == cluster.TransportUDP {
		// The datagram socket binds the same host:port as the TCP listener —
		// the port spaces are disjoint, so one address book serves both.
		var err error
		udp, err = udpnet.NewTransport(udpnet.Config{
			N:     cfg.N,
			Self:  cfg.Self(),
			Bind:  cfg.MeshAddr(),
			Peers: cfg.PeerAddrs(),
		})
		if err != nil {
			return fmt.Errorf("udp transport: %w", err)
		}
		meshCfg.Datagram = udp
		meshCfg.DatagramKinds = detectorKinds(cfg.Detector)
	}
	mesh, err := tcpnet.New(meshCfg)
	if err != nil {
		if udp != nil {
			udp.Stop()
		}
		return err
	}
	defer mesh.Stop()
	ln, err := net.Listen("tcp", cfg.ClientAddr)
	if err != nil {
		return fmt.Errorf("client listen %q: %w", cfg.ClientAddr, err)
	}
	defer ln.Close()

	nd := &node{cfg: cfg, start: time.Now(), udp: udp, waiters: make(map[int64]chan int)}
	ready := make(chan struct{})
	mesh.Spawn(cfg.Self(), "node", func(p dsys.Proc) {
		period := time.Duration(cfg.PeriodMS) * time.Millisecond
		var det fd.EventuallyConsistent
		if cfg.Detector == cluster.DetectorHeartbeat {
			det = ec.FromPerfect{S: heartbeat.Start(p, heartbeat.Options{Period: period}), N: cfg.N}
		} else {
			det = ring.Start(p, ring.Options{Period: period})
		}
		var rep *core.Replica
		if cfg.Role != cluster.RoleMonitor {
			rep = core.StartReplica(p, core.Config{
				Detector:  det,
				Consensus: consensus.Options{Poll: 2 * time.Millisecond, ProbeAfter: 25},
				Apply:     nd.onApply,
				// A restarted node must not reuse the (Origin, Seq) identities
				// of its previous incarnation; a nanosecond timestamp keys
				// each incarnation's sequence space apart. SeqBase and Seq
				// are int64 so the timestamp survives 32-bit platforms
				// untruncated (truncation would recreate the collision). The
				// same stamp keys the reliable-broadcast life apart: without
				// it, peers dedup the new life's decision broadcasts against
				// the old life's sequence numbers and drop them all, so every
				// decision a restarted coordinator makes reaches followers
				// only via a probe timeout — a persistent post-restart
				// throughput collapse (E16's leader-kill phase).
				SeqBase:     time.Now().UnixNano(),
				Incarnation: time.Now().UnixNano(),
				// Throughput knobs (0 = core defaults; 1/1 = unbatched,
				// sequential baseline — what E17's comparison cells use).
				MaxBatch: cfg.MaxBatch,
				Pipeline: cfg.Pipeline,
			})
		}
		nd.mu.Lock()
		nd.det, nd.rep = det, rep
		nd.mu.Unlock()
		close(ready)
		for {
			p.Sleep(time.Hour)
		}
	})
	<-ready
	go acceptClients(ln, nd)
	fmt.Printf("ecnode %v: mesh on %s, clients on %s, detector=%s role=%s transport=%s n=%d\n",
		cfg.Self(), mesh.Addr(cfg.Self()), cfg.ClientAddr, cfg.Detector, cfg.Role, cfg.HeartbeatTransport, cfg.N)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("ecnode %v: %v, shutting down\n", cfg.Self(), s)
	return nil // deferred ln.Close + mesh.Stop do the teardown
}

// onApply runs on the replica task for every decided command; it completes
// the waiter of a locally submitted proposal.
func (n *node) onApply(slot int, cmd core.Command) {
	if cmd.Origin != n.cfg.Self() {
		return
	}
	n.mu.Lock()
	ch := n.waiters[cmd.Seq]
	delete(n.waiters, cmd.Seq)
	n.mu.Unlock()
	if ch != nil {
		ch <- slot // buffered; never blocks the replica task
	}
}

func acceptClients(ln net.Listener, nd *node) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		go serveConn(conn, nd)
	}
}

// serveConn handles one client connection: newline-delimited JSON requests,
// answered in order.
func serveConn(conn net.Conn, nd *node) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		var req cluster.Request
		resp := cluster.Response{}
		if err := json.Unmarshal(line, &req); err != nil {
			resp.Error = fmt.Sprintf("bad request: %v", err)
		} else {
			resp = nd.handle(req)
		}
		data, err := json.Marshal(resp)
		if err != nil {
			data, _ = json.Marshal(cluster.Response{Error: "unencodable response"})
		}
		if _, err := conn.Write(append(data, '\n')); err != nil {
			return
		}
	}
}

func (n *node) handle(req cluster.Request) cluster.Response {
	switch req.Op {
	case "propose":
		return n.propose(req.Value)
	case "status":
		return n.status()
	case "log":
		return n.logEntries()
	default:
		return cluster.Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (n *node) propose(value string) cluster.Response {
	n.mu.Lock()
	rep := n.rep
	if rep == nil {
		n.mu.Unlock()
		return cluster.Response{Error: "node is a monitor; it does not serve proposals"}
	}
	// Register the waiter under the same lock the apply callback takes, so
	// a commit racing ahead of the registration cannot slip past it.
	cmd := rep.Submit(value)
	ch := make(chan int, 1)
	n.waiters[cmd.Seq] = ch
	n.mu.Unlock()
	select {
	case slot := <-ch:
		return cluster.Response{OK: true, Slot: slot}
	case <-time.After(proposeWait):
		n.mu.Lock()
		delete(n.waiters, cmd.Seq)
		n.mu.Unlock()
		return cluster.Response{Error: "timed out waiting for commit"}
	}
}

func (n *node) status() cluster.Response {
	n.mu.Lock()
	det, rep := n.det, n.rep
	n.mu.Unlock()
	resp := cluster.Response{
		OK:        true,
		ID:        n.cfg.ID,
		N:         n.cfg.N,
		Role:      n.cfg.Role,
		Detector:  n.cfg.Detector,
		Leader:    int(det.Trusted()),
		UptimeMS:  time.Since(n.start).Milliseconds(),
		Transport: n.cfg.HeartbeatTransport,
	}
	if n.udp != nil {
		sent, rcvd, _ := n.udp.Stats()
		resp.UDPOut, resp.UDPIn = sent, rcvd
	}
	for _, id := range det.Suspected().Members() {
		resp.Suspected = append(resp.Suspected, int(id))
	}
	if rep != nil {
		resp.Applied = rep.AppliedLen()
	}
	return resp
}

func (n *node) logEntries() cluster.Response {
	n.mu.Lock()
	rep := n.rep
	n.mu.Unlock()
	if rep == nil {
		return cluster.Response{Error: "node is a monitor; it has no log"}
	}
	values := rep.AppliedValues()
	entries := make([]string, len(values))
	for i, v := range values {
		entries[i] = fmt.Sprint(v)
	}
	return cluster.Response{OK: true, Entries: entries}
}
