package cluster

import (
	"testing"
	"time"
)

// launch builds the binaries and launches o's cluster in a fresh directory,
// stopped again when the test ends. Process tests are skipped under -short.
func launch(t *testing.T, o GenOptions) *Cluster {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	dir := t.TempDir()
	bins, err := Build(dir)
	if err != nil {
		t.Fatalf("build binaries: %v", err)
	}
	c, err := Launch(bins, dir, o)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	t.Cleanup(c.Stop)
	return c
}

// propose commits value through node id or fails the test.
func propose(t *testing.T, c *Cluster, id int, value string) {
	t.Helper()
	// The restarted node replays its log and rejoins the frontier first, so
	// the timeout is generous.
	if resp, err := ProposeValue(c.Addrs[id-1], value, 60*time.Second); err != nil || !resp.OK {
		t.Fatalf("propose %q via node %d: ok=%v err=%v resp.Error=%q", value, id, resp.OK, err, resp.Error)
	}
}

// TestKillRestartCrossProcess is the crash model the paper assumes, enacted
// with real OS processes: SIGKILL one ecnode child (no goodbye, the kernel
// tears its sockets down), assert the survivors' ring detector converges on
// suspecting it, restart it on the SAME addresses, and assert the peer
// writers reconnect with backoff and the detector converges back — the
// restarted node agrees on the leader, nobody suspects anybody, it catches
// up, a proposal through it commits, and the logs agree.
func TestKillRestartCrossProcess(t *testing.T) {
	c := launch(t, GenOptions{N: 3})
	if c.Leader != 1 {
		t.Fatalf("agreed leader = %d, want 1 (ring trusts the smallest live id)", c.Leader)
	}
	// Commit something through every node so the log is non-trivial.
	for id := 1; id <= 3; id++ {
		propose(t, c, id, "seed")
	}

	const victim = 2 // a follower
	if err := c.Node(victim).Kill(); err != nil {
		t.Fatalf("kill node %d: %v", victim, err)
	}
	if err := c.AwaitSuspected(victim); err != nil {
		t.Fatal(err)
	}
	// The majority must still commit while the victim is down.
	propose(t, c, 1, "during-crash")

	if err := c.Node(victim).Restart(); err != nil {
		t.Fatalf("restart node %d: %v", victim, err)
	}
	if err := c.AwaitRejoined(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitCaughtUp(victim); err != nil {
		t.Fatal(err)
	}
	propose(t, c, victim, "after-restart")
	if err := c.CheckLogs(); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartMixedTransport is the E16 scenario on the mixed transport:
// ring beats travel as UDP datagrams (heartbeat_transport=udp) while
// consensus and the log stay on TCP. The bar is the same — survivors
// suspect a SIGKILLed node, the cluster reconverges after restart, logs
// agree — plus proof that detector traffic really left TCP: every node's
// status must report nonzero datagram counters.
func TestKillRestartMixedTransport(t *testing.T) {
	c := launch(t, GenOptions{N: 3, HeartbeatTransport: TransportUDP})
	// An agreed leader is no proof that any beat has arrived yet (every node
	// trusts p1 from the start), so each node is polled until both of its
	// counters move.
	for id := 1; id <= 3; id++ {
		awaitUDP(t, c, id)
	}
	propose(t, c, 1, "seed")

	const victim = 3 // a follower; the ring leader stays up
	if err := c.Node(victim).Kill(); err != nil {
		t.Fatalf("kill node %d: %v", victim, err)
	}
	if err := c.AwaitSuspected(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(victim).Restart(); err != nil {
		t.Fatalf("restart node %d: %v", victim, err)
	}
	if err := c.AwaitRejoined(victim); err != nil {
		t.Fatal(err)
	}
	awaitUDP(t, c, victim)
	propose(t, c, victim, "after-restart")
	if err := c.CheckLogs(); err != nil {
		t.Fatal(err)
	}
}

// awaitUDP polls node id's status until it reports the UDP heartbeat
// transport with both datagram counters nonzero.
func awaitUDP(t *testing.T, c *Cluster, id int) {
	t.Helper()
	var st Response
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err = Status(c.Addrs[id-1], 2*time.Second)
		if err == nil && st.Transport != TransportUDP {
			t.Fatalf("node %d reports transport %q, want %q", id, st.Transport, TransportUDP)
		}
		if err == nil && st.UDPOut > 0 && st.UDPIn > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d udp counters %d out / %d in after 10s (last status error: %v) — beats not on UDP",
				id, st.UDPOut, st.UDPIn, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulStop exercises the SIGTERM path: a node shuts down cleanly
// within the grace period, without escalation to SIGKILL.
func TestGracefulStop(t *testing.T) {
	n := launch(t, GenOptions{N: 1}).Node(1)
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
