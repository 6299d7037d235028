// Package cluster is the multi-process harness around cmd/ecnode and
// cmd/ecload: node config files, the line-JSON client protocol, a launcher
// that builds the binaries, spawns real OS processes, kills them (SIGKILL)
// and restarts them on the same addresses, and the one kill/restart
// scenario over a launched Cluster — the waits for suspicion, rejoin and
// catch-up, and the log-agreement check. Experiments E16, E17 and E18 and
// the cross-process crash/restart tests are all built on it.
//
// Everything "live" elsewhere in the repository runs all n processes inside
// one OS process; this package is where the reproduction crosses real
// process boundaries — the failure mode the paper's ◇C detectors exist for
// is an actual SIGKILL here, not a method call.
package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/dsys"
)

// Detector choices understood by cmd/ecnode.
const (
	// DetectorRing is the paper's ring ◇C detector (default): n messages
	// per period, native Trusted query.
	DetectorRing = "ring"
	// DetectorHeartbeat is the CT-style all-pairs ◇P heartbeat detector,
	// lifted to ◇C by trusting the first non-suspected process.
	DetectorHeartbeat = "heartbeat"
)

// Heartbeat transports understood by cmd/ecnode.
const (
	// TransportTCP (default) carries detector traffic on the same TCP mesh
	// as everything else.
	TransportTCP = "tcp"
	// TransportUDP carries the detector's periodic traffic (heartbeats or
	// ring beats) as UDP datagrams on the mesh address, while control
	// traffic — consensus, reliable broadcast, log transfer — stays on TCP.
	// Lost heartbeats then cost suspicion latency instead of TCP
	// retransmission stalls, which is the fair-lossy link model the paper's
	// detectors are specified against.
	TransportUDP = "udp"
)

// Consensus roles understood by cmd/ecnode.
const (
	// RoleReplica (default) runs the full stack — detector, reliable
	// broadcast, replicated log — and serves client proposals.
	RoleReplica = "replica"
	// RoleMonitor runs only the failure detector; propose requests are
	// rejected. Useful for pure observation nodes.
	RoleMonitor = "monitor"
)

// NodeConfig is the configuration file one ecnode process loads (JSON).
type NodeConfig struct {
	// ID is this node's process id (1-based).
	ID int `json:"id"`
	// N is the cluster size.
	N int `json:"n"`
	// Peers maps every process id (decimal string, JSON keys) to the mesh
	// address it listens on; the entry for ID is this node's own bind
	// address.
	Peers map[string]string `json:"peers"`
	// ClientAddr is the address the node serves the client protocol on.
	ClientAddr string `json:"client_addr"`
	// Detector selects the failure detector: DetectorRing (default) or
	// DetectorHeartbeat.
	Detector string `json:"detector,omitempty"`
	// Role selects the consensus role: RoleReplica (default) or
	// RoleMonitor.
	Role string `json:"role,omitempty"`
	// HeartbeatTransport selects how detector traffic travels:
	// TransportTCP (default) multiplexes it onto the TCP mesh;
	// TransportUDP sends it as datagrams bound on the same mesh host:port
	// (TCP and UDP port spaces are disjoint, so no extra addresses are
	// needed).
	HeartbeatTransport string `json:"heartbeat_transport,omitempty"`
	// PeriodMS is the detector heartbeat period in milliseconds
	// (default 10).
	PeriodMS int `json:"period_ms,omitempty"`
	// MaxBatch caps commands per replicated-log slot (0 = core's default,
	// currently 64; 1 = unbatched).
	MaxBatch int `json:"max_batch,omitempty"`
	// Pipeline is the replicated log's instance window (0 = core's default,
	// currently 4; 1 = strictly sequential slots).
	Pipeline int `json:"pipeline,omitempty"`
}

// Validate checks the config for internal consistency and fills defaults.
func (c *NodeConfig) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("cluster: n must be at least 1 (got %d)", c.N)
	}
	if c.ID < 1 || c.ID > c.N {
		return fmt.Errorf("cluster: id %d out of range 1..%d", c.ID, c.N)
	}
	if c.ClientAddr == "" {
		return fmt.Errorf("cluster: client_addr is required")
	}
	if _, ok := c.Peers[strconv.Itoa(c.ID)]; !ok {
		return fmt.Errorf("cluster: peers is missing this node's own address (id %d)", c.ID)
	}
	for key := range c.Peers {
		id, err := strconv.Atoi(key)
		if err != nil || id < 1 || id > c.N {
			return fmt.Errorf("cluster: peers key %q is not a process id in 1..%d", key, c.N)
		}
	}
	switch c.Detector {
	case "", DetectorRing, DetectorHeartbeat:
	default:
		return fmt.Errorf("cluster: unknown detector %q (want %q or %q)", c.Detector, DetectorRing, DetectorHeartbeat)
	}
	switch c.Role {
	case "", RoleReplica, RoleMonitor:
	default:
		return fmt.Errorf("cluster: unknown role %q (want %q or %q)", c.Role, RoleReplica, RoleMonitor)
	}
	switch c.HeartbeatTransport {
	case "", TransportTCP, TransportUDP:
	default:
		return fmt.Errorf("cluster: unknown heartbeat_transport %q (want %q or %q)",
			c.HeartbeatTransport, TransportTCP, TransportUDP)
	}
	if c.Detector == "" {
		c.Detector = DetectorRing
	}
	if c.Role == "" {
		c.Role = RoleReplica
	}
	if c.HeartbeatTransport == "" {
		c.HeartbeatTransport = TransportTCP
	}
	if c.PeriodMS <= 0 {
		c.PeriodMS = 10
	}
	if c.MaxBatch < 0 || c.Pipeline < 0 {
		return fmt.Errorf("cluster: max_batch/pipeline must be >= 0 (got %d/%d)", c.MaxBatch, c.Pipeline)
	}
	return nil
}

// Self returns the node's own process id as dsys.ProcessID.
func (c *NodeConfig) Self() dsys.ProcessID { return dsys.ProcessID(c.ID) }

// MeshAddr returns the node's own mesh bind address.
func (c *NodeConfig) MeshAddr() string { return c.Peers[strconv.Itoa(c.ID)] }

// PeerAddrs returns the remote peers as the map tcpnet.Config.Peers takes.
func (c *NodeConfig) PeerAddrs() map[dsys.ProcessID]string {
	out := make(map[dsys.ProcessID]string, len(c.Peers)-1)
	for key, addr := range c.Peers {
		id, _ := strconv.Atoi(key)
		if id != c.ID {
			out[dsys.ProcessID(id)] = addr
		}
	}
	return out
}

// LoadNodeConfig reads and validates a node config file.
func LoadNodeConfig(path string) (NodeConfig, error) {
	var c NodeConfig
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("cluster: read config: %w", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("cluster: parse config %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return c, nil
}

// WriteNodeConfig writes a node config file (indented JSON).
func WriteNodeConfig(path string, c NodeConfig) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Spec pairs a generated node config with the file it was written to.
type Spec struct {
	Cfg  NodeConfig
	Path string
}

// GenOptions parameterizes GenerateCluster. Zero values mean defaults
// (ring detector, 10ms period, TCP heartbeats, core's batching).
type GenOptions struct {
	N                  int
	Detector           string
	PeriodMS           int
	MaxBatch, Pipeline int
	// HeartbeatTransport selects TransportTCP (default) or TransportUDP for
	// the detector traffic of every node.
	HeartbeatTransport string
}

// GenerateCluster allocates 2n loopback ports (mesh + client per node),
// writes one config file per node into dir (node1.json .. nodeN.json) and
// returns the specs. Ports are reserved by binding and releasing ephemeral
// listeners, so the addresses are fixed — which is what lets a killed node
// restart on the SAME address, the scenario E16 exists to measure. Mesh
// addresses are probed on TCP and UDP both, so a TransportUDP cluster can
// bind its datagram sockets on the same host:port as the stream mesh.
func GenerateCluster(dir string, o GenOptions) ([]Spec, error) {
	if o.N < 1 {
		return nil, fmt.Errorf("cluster: n must be at least 1")
	}
	mesh, err := freeDualAddrs(o.N)
	if err != nil {
		return nil, err
	}
	client, err := freeAddrs(o.N)
	if err != nil {
		return nil, err
	}
	peers := make(map[string]string, o.N)
	for i := 0; i < o.N; i++ {
		peers[strconv.Itoa(i+1)] = mesh[i]
	}
	specs := make([]Spec, o.N)
	for i := 0; i < o.N; i++ {
		cfg := NodeConfig{
			ID:                 i + 1,
			N:                  o.N,
			Peers:              peers,
			ClientAddr:         client[i],
			Detector:           o.Detector,
			HeartbeatTransport: o.HeartbeatTransport,
			PeriodMS:           o.PeriodMS,
			MaxBatch:           o.MaxBatch,
			Pipeline:           o.Pipeline,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("node%d.json", i+1))
		if err := WriteNodeConfig(path, cfg); err != nil {
			return nil, fmt.Errorf("cluster: write %s: %w", path, err)
		}
		specs[i] = Spec{Cfg: cfg, Path: path}
	}
	return specs, nil
}

// freeAddrs reserves k distinct loopback host:port addresses by binding
// ephemeral listeners and closing them. The window between release and the
// node binding it is a real (but tiny) race; acceptable for tests and
// experiments on a local machine.
func freeAddrs(k int) ([]string, error) {
	lns := make([]net.Listener, 0, k)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// freeDualAddrs reserves k loopback host:port addresses that are free on
// BOTH tcp and udp, so a mixed-transport node can bind its datagram socket
// alongside its stream listener on one address.
func freeDualAddrs(k int) ([]string, error) {
	addrs := make([]string, 0, k)
	for attempts := 0; len(addrs) < k; attempts++ {
		if attempts > 20*k {
			return nil, fmt.Errorf("cluster: could not reserve %d tcp+udp port pairs", k)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: reserve port: %w", err)
		}
		addr := ln.Addr().String()
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			ln.Close()
			return nil, err
		}
		uc, err := net.ListenUDP("udp", ua)
		ln.Close()
		if err != nil {
			continue // UDP side taken; try another ephemeral port
		}
		uc.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}
