package cluster

import (
	"testing"
	"time"
)

// TestKillRestartCrossProcess is the crash model the paper assumes, enacted
// with real OS processes: SIGKILL one ecnode child (no goodbye, the kernel
// tears its sockets down), assert the survivors' ring detector converges on
// suspecting it, restart it on the SAME addresses, and assert the peer
// writers reconnect with backoff and the detector converges back — the
// restarted node agrees on the leader, nobody suspects anybody, and a
// proposal through the restarted node commits.
func TestKillRestartCrossProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	dir := t.TempDir()
	bins, err := Build(dir)
	if err != nil {
		t.Fatalf("build binaries: %v", err)
	}
	specs, err := Generate(dir, 3, DetectorRing, 10)
	if err != nil {
		t.Fatalf("generate configs: %v", err)
	}
	nodes := make([]*Node, len(specs))
	for i, sp := range specs {
		n, err := StartNode(bins.Ecnode, sp, dir)
		if err != nil {
			t.Fatalf("start node %d: %v", sp.Cfg.ID, err)
		}
		nodes[i] = n
		defer n.Stop(2 * time.Second)
	}
	addrs := ClientAddrs(specs)
	leader, err := AwaitAgreedLeader(addrs, 30*time.Second)
	if err != nil {
		t.Fatalf("cluster never converged: %v", err)
	}
	if leader != 1 {
		t.Fatalf("agreed leader = %d, want 1 (ring trusts the smallest live id)", leader)
	}

	// Commit something through every node so the log is non-trivial.
	for i, addr := range addrs {
		if resp, err := ProposeValue(addr, "seed", 20*time.Second); err != nil || !resp.OK {
			t.Fatalf("propose via node %d: ok=%v err=%v", i+1, resp.OK, err)
		}
	}

	// SIGKILL the follower node 2.
	victim := 2
	if err := nodes[victim-1].Kill(); err != nil {
		t.Fatalf("kill node %d: %v", victim, err)
	}
	survivors := []string{addrs[0], addrs[2]}
	deadline := time.Now().Add(30 * time.Second)
	for {
		all := true
		for _, addr := range survivors {
			st, err := Status(addr, 2*time.Second)
			if err != nil || !st.Suspects(victim) {
				all = false
				break
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never suspected killed node %d", victim)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The majority must still commit while the victim is down.
	if resp, err := ProposeValue(addrs[0], "during-crash", 20*time.Second); err != nil || !resp.OK {
		t.Fatalf("propose with node %d down: ok=%v err=%v", victim, resp.OK, err)
	}

	// Restart on the same addresses; the survivors' writers reconnect with
	// backoff and the ring detector converges back.
	if err := nodes[victim-1].Restart(); err != nil {
		t.Fatalf("restart node %d: %v", victim, err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		good := true
		for _, addr := range survivors {
			st, err := Status(addr, 2*time.Second)
			if err != nil || st.Suspects(victim) {
				good = false
				break
			}
		}
		if good {
			st, err := Status(addrs[victim-1], 2*time.Second)
			good = err == nil && st.OK && st.Leader == leader && len(st.Suspected) == 0
		}
		if good {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reconverged after restarting node %d", victim)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A proposal through the restarted node must commit (it replays its log
	// and rejoins the frontier first, so give it time).
	resp, err := ProposeValue(addrs[victim-1], "after-restart", 60*time.Second)
	if err != nil || !resp.OK {
		t.Fatalf("propose via restarted node %d: ok=%v err=%v resp.Error=%q", victim, resp.OK, err, resp.Error)
	}

	// All replicas agree on the common prefix of their logs.
	logs := make([][]string, len(addrs))
	for i, addr := range addrs {
		if logs[i], err = FetchLog(addr, 10*time.Second); err != nil {
			t.Fatalf("fetch log from node %d: %v", i+1, err)
		}
		if len(logs[i]) == 0 {
			t.Fatalf("node %d has an empty log", i+1)
		}
	}
	for i := 1; i < len(logs); i++ {
		n := len(logs[0])
		if len(logs[i]) < n {
			n = len(logs[i])
		}
		for k := 0; k < n; k++ {
			if logs[0][k] != logs[i][k] {
				t.Fatalf("log divergence at slot %d: node1=%q node%d=%q", k+1, logs[0][k], i+1, logs[i][k])
			}
		}
	}
}

// TestKillRestartMixedTransport is the E16 scenario on the mixed transport:
// ring beats travel as UDP datagrams (heartbeat_transport=udp) while
// consensus and the log stay on TCP. The bar is the same — survivors
// suspect a SIGKILLed node, the cluster reconverges after restart, logs
// agree — plus proof that detector traffic really left TCP: every node's
// status must report nonzero datagram counters.
func TestKillRestartMixedTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	dir := t.TempDir()
	bins, err := Build(dir)
	if err != nil {
		t.Fatalf("build binaries: %v", err)
	}
	specs, err := GenerateCluster(dir, GenOptions{
		N: 3, Detector: DetectorRing, PeriodMS: 10,
		HeartbeatTransport: TransportUDP,
	})
	if err != nil {
		t.Fatalf("generate configs: %v", err)
	}
	nodes := make([]*Node, len(specs))
	for i, sp := range specs {
		n, err := StartNode(bins.Ecnode, sp, dir)
		if err != nil {
			t.Fatalf("start node %d: %v", sp.Cfg.ID, err)
		}
		nodes[i] = n
		defer n.Stop(2 * time.Second)
	}
	addrs := ClientAddrs(specs)
	leader, err := AwaitAgreedLeader(addrs, 30*time.Second)
	if err != nil {
		t.Fatalf("cluster never converged over UDP heartbeats: %v", err)
	}

	// Heartbeats must demonstrably flow as datagrams on every node. An
	// agreed leader is no proof that any beat has arrived yet (every node
	// trusts p1 from the start), so each node is polled until both of its
	// counters move.
	for i, addr := range addrs {
		var st Response
		var err error
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, err = Status(addr, 2*time.Second)
			if err == nil && st.Transport != TransportUDP {
				t.Fatalf("node %d reports transport %q, want %q", i+1, st.Transport, TransportUDP)
			}
			if err == nil && st.UDPOut > 0 && st.UDPIn > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d udp counters %d out / %d in after 10s (last status error: %v) — beats not on UDP",
					i+1, st.UDPOut, st.UDPIn, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	if resp, err := ProposeValue(addrs[0], "seed", 20*time.Second); err != nil || !resp.OK {
		t.Fatalf("propose: ok=%v err=%v", resp.OK, err)
	}

	victim := 3 // a follower; the ring leader stays up
	if err := nodes[victim-1].Kill(); err != nil {
		t.Fatalf("kill node %d: %v", victim, err)
	}
	survivors := []string{addrs[0], addrs[1]}
	deadline := time.Now().Add(30 * time.Second)
	for {
		all := true
		for _, addr := range survivors {
			st, err := Status(addr, 2*time.Second)
			if err != nil || !st.Suspects(victim) {
				all = false
				break
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never suspected killed node %d over UDP beats", victim)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := nodes[victim-1].Restart(); err != nil {
		t.Fatalf("restart node %d: %v", victim, err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		good := true
		for _, addr := range survivors {
			st, err := Status(addr, 2*time.Second)
			if err != nil || st.Suspects(victim) {
				good = false
				break
			}
		}
		if good {
			st, err := Status(addrs[victim-1], 2*time.Second)
			good = err == nil && st.OK && st.Leader == leader && len(st.Suspected) == 0 && st.UDPIn > 0
		}
		if good {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reconverged after restarting node %d", victim)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if resp, err := ProposeValue(addrs[victim-1], "after-restart", 60*time.Second); err != nil || !resp.OK {
		t.Fatalf("propose via restarted node %d: ok=%v err=%v resp.Error=%q", victim, resp.OK, err, resp.Error)
	}
	logs := make([][]string, len(addrs))
	for i, addr := range addrs {
		if logs[i], err = FetchLog(addr, 10*time.Second); err != nil {
			t.Fatalf("fetch log from node %d: %v", i+1, err)
		}
	}
	for i := 1; i < len(logs); i++ {
		n := len(logs[0])
		if len(logs[i]) < n {
			n = len(logs[i])
		}
		for k := 0; k < n; k++ {
			if logs[0][k] != logs[i][k] {
				t.Fatalf("log divergence at slot %d: node1=%q node%d=%q", k+1, logs[0][k], i+1, logs[i][k])
			}
		}
	}
}

// TestGracefulStop exercises the SIGTERM path: a node shuts down cleanly
// within the grace period, without escalation to SIGKILL.
func TestGracefulStop(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	dir := t.TempDir()
	bins, err := Build(dir)
	if err != nil {
		t.Fatalf("build binaries: %v", err)
	}
	specs, err := Generate(dir, 1, DetectorRing, 10)
	if err != nil {
		t.Fatalf("generate configs: %v", err)
	}
	n, err := StartNode(bins.Ecnode, specs[0], dir)
	if err != nil {
		t.Fatalf("start node: %v", err)
	}
	if _, err := AwaitAgreedLeader(ClientAddrs(specs), 20*time.Second); err != nil {
		t.Fatalf("node never came up: %v", err)
	}
	if err := n.Stop(10 * time.Second); err != nil {
		t.Fatalf("graceful stop escalated: %v", err)
	}
	if n.Running() {
		t.Fatal("node still marked running after Stop")
	}
}

// TestNodeConfigValidation pins the config error paths.
func TestNodeConfigValidation(t *testing.T) {
	valid := NodeConfig{
		ID: 1, N: 2,
		Peers:      map[string]string{"1": "127.0.0.1:1", "2": "127.0.0.1:2"},
		ClientAddr: "127.0.0.1:3",
	}
	if err := (&valid).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if valid.Detector != DetectorRing || valid.Role != RoleReplica || valid.PeriodMS != 10 ||
		valid.HeartbeatTransport != TransportTCP {
		t.Fatalf("defaults not filled: %+v", valid)
	}
	bad := []NodeConfig{
		{ID: 0, N: 2, Peers: valid.Peers, ClientAddr: "x"},
		{ID: 3, N: 2, Peers: valid.Peers, ClientAddr: "x"},
		{ID: 1, N: 2, Peers: map[string]string{"2": "a"}, ClientAddr: "x"},
		{ID: 1, N: 2, Peers: map[string]string{"1": "a", "9": "b"}, ClientAddr: "x"},
		{ID: 1, N: 2, Peers: valid.Peers, ClientAddr: "x", Detector: "psychic"},
		{ID: 1, N: 2, Peers: valid.Peers, ClientAddr: "x", Role: "spectator"},
		{ID: 1, N: 2, Peers: valid.Peers, ClientAddr: "x", HeartbeatTransport: "pigeon"},
		{ID: 1, N: 2, Peers: valid.Peers},
	}
	for i, c := range bad {
		if err := (&c).Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}
