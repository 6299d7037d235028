package cluster

import (
	"fmt"
	"time"
)

// Cluster is a launched process cluster: one Node per ecnode process, their
// client addresses in id order (Addrs[i] is node i+1's), and the leader every
// node agreed on at launch.
//
// Its methods are the steps every kill/restart scenario is built from —
// Node(id).Kill, AwaitSuspected, Node(id).Restart, AwaitRejoined,
// AwaitCaughtUp, CheckLogs. Each wait polls its predicate every 5ms until it
// holds or the wait's fixed deadline passes; a deadline only bounds how long
// a failing run takes to fail.
type Cluster struct {
	Addrs  []string
	Leader int
	nodes  []*Node
}

// statusTimeout bounds each status request a wait makes.
const statusTimeout = time.Second

// Launch writes the node configs for o into dir (GenerateCluster), starts one
// ecnode process per node with its output appended to dir/node<id>.log, and
// waits for an agreed leader. On error every started node is stopped again.
func Launch(bins Binaries, dir string, o GenOptions) (*Cluster, error) {
	specs, err := GenerateCluster(dir, o)
	if err != nil {
		return nil, err
	}
	c := &Cluster{}
	for _, sp := range specs {
		n, err := startNode(bins.Ecnode, sp, dir)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.Addrs = append(c.Addrs, sp.Cfg.ClientAddr)
	}
	if c.Leader, err = c.AwaitAgreedLeader(); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// Stop shuts every node down (SIGTERM, SIGKILL after 2s). Nodes already
// killed or stopped are skipped.
func (c *Cluster) Stop() {
	for _, n := range c.nodes {
		n.Stop(2 * time.Second)
	}
}

// Node returns the node with process id id (1-based).
func (c *Cluster) Node(id int) *Node { return c.nodes[id-1] }

// AwaitAgreedLeader waits until every node responds, none suspects anybody,
// and all report the same non-zero leader, and returns that leader. It is
// the "cluster is up" barrier Launch ends with.
func (c *Cluster) AwaitAgreedLeader() (int, error) {
	leader := 0
	err := await(60*time.Second, "no agreed leader", func() bool {
		leader = 0
		for _, addr := range c.Addrs {
			st, err := Status(addr, statusTimeout)
			if err != nil || !st.OK || st.Leader == 0 || len(st.Suspected) > 0 ||
				(leader != 0 && st.Leader != leader) {
				leader = 0
				return false
			}
			leader = st.Leader
		}
		return true
	})
	return leader, err
}

// AwaitSuspected waits until every node but victim suspects victim.
func (c *Cluster) AwaitSuspected(victim int) error {
	return await(30*time.Second, fmt.Sprintf("survivors never suspected p%d", victim), func() bool {
		return c.allSurvivors(victim, func(st Response) bool { return st.suspects(victim) })
	})
}

// AwaitRejoined waits until no other node suspects victim and victim itself
// reports the launch leader with an empty suspect set.
func (c *Cluster) AwaitRejoined(victim int) error {
	return await(30*time.Second, fmt.Sprintf("p%d never rejoined", victim), func() bool {
		if !c.allSurvivors(victim, func(st Response) bool { return !st.suspects(victim) }) {
			return false
		}
		st, err := Status(c.Addrs[victim-1], statusTimeout)
		return err == nil && st.OK && st.Leader == c.Leader && len(st.Suspected) == 0
	})
}

// AwaitCaughtUp waits until victim has applied at least one command and at
// least as many as every other node.
func (c *Cluster) AwaitCaughtUp(victim int) error {
	return await(60*time.Second, fmt.Sprintf("p%d never caught up", victim), func() bool {
		vict, err := Status(c.Addrs[victim-1], statusTimeout)
		return err == nil && vict.Applied > 0 &&
			c.allSurvivors(victim, func(st Response) bool { return vict.Applied >= st.Applied })
	})
}

// CheckLogs fetches every node's applied log and checks that they agree
// (LogsAgree).
func (c *Cluster) CheckLogs() error {
	logs := make([][]string, len(c.Addrs))
	for i, addr := range c.Addrs {
		var err error
		if logs[i], err = fetchLog(addr, 10*time.Second); err != nil {
			return fmt.Errorf("cluster: log of p%d: %w", i+1, err)
		}
	}
	return LogsAgree(logs)
}

// LogsAgree checks that every log (logs[i] is node i+1's applied commands) is
// a prefix of the longest one: every replica has witnessed the same sequence
// of commands, some further than others. On a mismatch the error names the
// first differing entry (1-based applied-command index), both nodes and both
// values.
func LogsAgree(logs [][]string) error {
	var longest []string
	ref := 0
	for i, l := range logs {
		if len(l) > len(longest) {
			longest, ref = l, i+1
		}
	}
	for i, l := range logs {
		for k, v := range l {
			if v != longest[k] {
				return fmt.Errorf("cluster: logs diverge at entry %d: p%d has %q, p%d has %q",
					k+1, ref, longest[k], i+1, v)
			}
		}
	}
	return nil
}

// allSurvivors reports whether every node but victim answers a status
// request with a response ok accepts.
func (c *Cluster) allSurvivors(victim int, ok func(Response) bool) bool {
	for i, addr := range c.Addrs {
		if i == victim-1 {
			continue
		}
		st, err := Status(addr, statusTimeout)
		if err != nil || !ok(st) {
			return false
		}
	}
	return true
}

// await polls cond every 5ms until it holds, or fails with what once within
// has passed.
func await(within time.Duration, what string, cond func() bool) error {
	limit := time.Now().Add(within)
	for !cond() {
		if time.Now().After(limit) {
			return fmt.Errorf("cluster: %s within %v", what, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
