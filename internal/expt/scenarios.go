package expt

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/heartbeat"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/trace"
	"repro/internal/udpnet"
)

// E18ScenarioMatrix is the adversarial scenario matrix: every ◇P-capable
// detector in the repository (CT heartbeat, the paper's ring, the ◇C→◇P
// transformation) crossed with a declarative table of network adversities —
// loss, duplication, reordering, asymmetric delay, clock-drift-equivalent
// timer skew, restart storms, a slow receiver — each cell reporting the four
// Chen–Toueg–Aguilera QoS figures: detection time, mistake rate λ_M,
// mistake duration T_M and query accuracy probability P_A.
//
// The matrix has three parts:
//
//  1. the simulated matrix (deterministic: same seeds, same cells), which
//     carries the regression gates — every cell must detect the crash, and
//     the zero-adversity cells must be perfect (no mistakes, P_A = 1,
//     detection within e18DetectBound);
//  2. live rows on the real UDP datagram transport (package udpnet), where
//     loss/dup/jitter come from the cluster's network model, reordering
//     from the transport, and heartbeats are genuinely lost rather than
//     TCP-retransmitted — completeness must survive, wall-clock numbers are
//     machine-dependent;
//  3. a mixed-transport kill/restart phase on real ecnode OS processes
//     (ring beats over UDP, consensus over TCP): survivors must suspect a
//     SIGKILLed follower, reconverge after its restart, and the datagram
//     counters must prove the beats actually left TCP.
func E18ScenarioMatrix(quick bool) (*Table, error) {
	t, err := e18SimMatrix(quick)

	// Part 2: live rows on the real datagram transport. The clean row is the
	// wall-clock zero-adversity gate; the adversarial row plans loss, dup and
	// jitter with a network model and has the transport reorder.
	liveRows := []struct {
		name  string
		model network.Network
		udp   udpnet.Config
		clean bool
	}{
		{"live udp: clean", nil, udpnet.Config{}, true},
		{"live udp: 20% loss + dup + reorder",
			network.Duplicating{P: 0.2, MaxCopies: 2, Under: network.FairLossy{
				P: 0.2, Under: network.Reliable{Latency: network.Uniform{Max: 3 * time.Millisecond}}}},
			udpnet.Config{Seed: 19, ReorderP: 0.3, ReorderWindow: 30 * time.Millisecond}, false},
	}
	// The rows run one after the other, like E15's cells: the clean row gates
	// zero false suspicions on wall-clock timeouts, so it does not share the
	// cores with a second mesh.
	for _, lr := range liveRows {
		res, rerr := runUDPScenario(lr.model, lr.udp)
		if rerr != nil {
			return t, rerr
		}
		ok := res.completeness.Holds
		if lr.clean {
			ok = ok && res.qos.Mistakes == 0
		} else {
			ok = ok && res.drops > 0 && res.dups > 0 && res.reorders > 0
		}
		t.AddRow(lr.name, "heartbeat ◇P", detCell(res.qos), fmt.Sprintf("%.3f", res.qos.MistakeRate),
			msd(res.qos.AvgMistakeDuration), fmt.Sprintf("%.4f", res.qos.QueryAccuracy), mark(ok))
		if err == nil {
			err = checkf(res.completeness.Holds, "E18", "%s: strong completeness violated on udpnet", lr.name)
		}
		if err == nil && lr.clean {
			err = checkf(res.qos.Mistakes == 0, "E18", "%s: false suspicions at 0%% loss (mistakes=%d)", lr.name, res.qos.Mistakes)
		}
		if err == nil && !lr.clean {
			err = checkf(res.drops > 0 && res.dups > 0 && res.reorders > 0,
				"E18", "%s: fault injection inert (drops=%d dups=%d reorders=%d)", lr.name, res.drops, res.dups, res.reorders)
		}
	}

	// Part 3: the mixed-transport cluster phase — real OS processes, ring
	// beats as datagrams, consensus on TCP, SIGKILL + restart.
	ph, perr := e18ClusterPhase()
	if perr != nil {
		return t, perr
	}
	t.AddRow("ecnode kill+restart (udp beats)", "ring ◇C", msd(ph.detect), "-", "-", "-", mark(true))
	t.Notes = append(t.Notes,
		"sim cells (n=8, crash at 600ms) are deterministic; λ_M is mistake episodes per second of observed alive time, T_M the mean closed-mistake duration, P_A the fraction of accurate alive queries",
		"live rows run the detector over real UDP datagram sockets (n=4, wall-clock, machine-dependent); lost heartbeats are genuinely lost, not retransmitted",
		fmt.Sprintf("cluster phase: 3 ecnode processes with heartbeat_transport=udp — follower suspected %v after SIGKILL, reconverged %v after restart, udp counters %d out / %d in on the restarted node",
			msd(ph.detect), msd(ph.recover), ph.udpOut, ph.udpIn))
	return t, err
}

// e18SimMatrix returns E18's table holding only the simulated matrix, one
// private kernel per cell fanned across the worker pool, and the first
// failed gate. Cell (i,j) = scenario i × detector j.
func e18SimMatrix(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E18",
		Title:   "Adversarial scenario matrix: detector QoS under loss, dup, reorder, skew and restarts (supplementary; sim n=8 + live UDP)",
		Claim:   "supplement to Section 4: adversity degrades the Chen QoS figures (λ_M, T_M, P_A, detection time) smoothly, never the eventual properties; zero-adversity cells are perfect",
		Columns: []string{"scenario", "detector", "detect avg", "λ_M /s", "T_M", "P_A", "ok"},
	}
	scenarios := simScenarios(quick)
	// The matrix's columns: a label and an fdlab stack each.
	dets := []struct{ name, stack string }{
		{"heartbeat ◇P", "heartbeat"}, {"ring ◇C", "ring"}, {"transform ◇C→◇P", "transform-scripted"},
	}
	type cellResult struct {
		qos      check.QoS
		detected bool
	}
	cells := runTrials(len(scenarios)*len(dets), func(k int) cellResult {
		sc, d := scenarios[k/len(dets)], dets[k%len(dets)]
		q := runSimScenario(sc, fdlab.MustStack(d.stack), int64(1800+k), quick)
		return cellResult{qos: q, detected: q.WorstDetection >= 0}
	})
	var err error
	for i, sc := range scenarios {
		for j, d := range dets {
			c := cells[i*len(dets)+j]
			ok := c.detected
			if sc.zero {
				ok = ok && c.qos.Mistakes == 0 && c.qos.QueryAccuracy == 1 &&
					c.qos.WorstDetection <= e18DetectBound
			}
			t.AddRow(sc.name, d.name, detCell(c.qos), fmt.Sprintf("%.3f", c.qos.MistakeRate),
				msd(c.qos.AvgMistakeDuration), fmt.Sprintf("%.4f", c.qos.QueryAccuracy), mark(ok))
			if err == nil {
				err = checkf(c.detected, "E18", "%s × %s: crash never permanently detected", sc.name, d.name)
			}
			if err == nil && sc.zero {
				err = checkf(c.qos.Mistakes == 0 && c.qos.QueryAccuracy == 1,
					"E18", "%s × %s: zero-adversity cell not mistake-free (λ_M=%g P_A=%g)",
					sc.name, d.name, c.qos.MistakeRate, c.qos.QueryAccuracy)
				if err == nil {
					err = checkf(c.qos.WorstDetection <= e18DetectBound,
						"E18", "%s × %s: zero-adversity detection %v exceeds bound %v",
						sc.name, d.name, c.qos.WorstDetection, e18DetectBound)
				}
			}
		}
	}
	return t, err
}

// e18DetectBound gates detection latency of the deterministic zero-adversity
// cells: generous against the ~30–60ms actual figures (period 10ms,
// fd.InitialTimeout 3 periods, ring watch propagation), tight against
// regressions that cost a multiple.
const e18DetectBound = 300 * time.Millisecond

// simScenario is one row of the declarative adversity table.
type simScenario struct {
	name string
	// zero marks the regression-gated zero-adversity cell.
	zero bool
	// net wraps the base (reliable 1–5ms) link model with the adversity.
	net func(base network.Network) network.Network
	// skew scales each process's detector period (clock-drift equivalent);
	// nil means no skew.
	skew func(id dsys.ProcessID, n int) float64
}

func simScenarios(quick bool) []simScenario {
	base := func(b network.Network) network.Network { return b }
	all := []simScenario{
		{name: "none", zero: true, net: base},
		{name: "loss 5%", net: func(b network.Network) network.Network {
			return network.FairLossy{P: 0.05, Under: b}
		}},
		{name: "loss 20%", net: func(b network.Network) network.Network {
			return network.FairLossy{P: 0.20, Under: b}
		}},
		{name: "dup", net: func(b network.Network) network.Network {
			return network.Duplicating{P: 0.3, MaxCopies: 3, Under: b}
		}},
		{name: "reorder", net: func(network.Network) network.Network {
			// High-variance latency delivers datagrams far out of send order.
			return network.Reliable{Latency: network.Uniform{Min: 0, Max: 40 * time.Millisecond}}
		}},
		{name: "asym delay", net: func(b network.Network) network.Network {
			// One direction of every link is slow: from the higher id to the
			// lower, +25ms on top of the base latency.
			return network.Func(func(from, to dsys.ProcessID, kind string, now time.Duration, rng *rand.Rand) (time.Duration, bool) {
				d, drop := b.Plan(from, to, kind, now, rng)
				if from > to {
					d += 25 * time.Millisecond
				}
				return d, drop
			})
		}},
		{name: "timer skew ±10%", net: base, skew: func(id dsys.ProcessID, n int) float64 {
			// Clock-drift equivalent: per-process detector periods spread
			// linearly over [0.9, 1.1] — the fastest clock ticks 22% faster
			// than the slowest.
			if n <= 1 {
				return 1
			}
			return 0.9 + 0.2*float64(id-1)/float64(n-1)
		}},
		{name: "restart storm", net: func(b network.Network) network.Network {
			// Process 2 blacks out for 100ms three times — the message-level
			// footprint of a process that keeps crashing and restarting.
			storm := dsys.ProcessID(2)
			windows := [][2]time.Duration{
				{600 * time.Millisecond, 700 * time.Millisecond},
				{1000 * time.Millisecond, 1100 * time.Millisecond},
				{1400 * time.Millisecond, 1500 * time.Millisecond},
			}
			return network.Func(func(from, to dsys.ProcessID, kind string, now time.Duration, rng *rand.Rand) (time.Duration, bool) {
				if from == storm || to == storm {
					for _, w := range windows {
						if now >= w[0] && now < w[1] {
							return 0, true
						}
					}
				}
				return b.Plan(from, to, kind, now, rng)
			})
		}},
		{name: "slow receiver", net: func(b network.Network) network.Network {
			// Everything INTO process 3 lags 30ms extra — an overloaded
			// receiver whose inbound queue drains slowly.
			slow := dsys.ProcessID(3)
			return network.Func(func(from, to dsys.ProcessID, kind string, now time.Duration, rng *rand.Rand) (time.Duration, bool) {
				d, drop := b.Plan(from, to, kind, now, rng)
				if to == slow {
					d += 30 * time.Millisecond
				}
				return d, drop
			})
		}},
	}
	if quick {
		// Keep the gated zero-adversity cell plus one representative of each
		// adversity family.
		return []simScenario{all[0], all[2], all[6], all[7]}
	}
	return all
}

// runSimScenario runs one matrix cell: stack on n=8, the scenario's network
// and timer skew, one crash, QoS over the sampled trace.
func runSimScenario(sc simScenario, stack fdlab.Stack, seed int64, quick bool) check.QoS {
	const (
		n       = 8
		period  = 10 * time.Millisecond
		crashAt = 600 * time.Millisecond
	)
	runFor := 3 * time.Second
	if quick {
		runFor = 2 * time.Second
	}
	base := network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 5 * time.Millisecond}}
	res := fdlab.Run(fdlab.Setup{
		N:       n,
		Seed:    seed,
		Net:     sc.net(base),
		Crashes: map[dsys.ProcessID]time.Duration{dsys.ProcessID(n / 2): crashAt},
		Build: func(p dsys.Proc) any {
			pp := period
			if sc.skew != nil {
				pp = time.Duration(float64(period) * sc.skew(p.ID(), n))
			}
			return stack.Start(p, pp)
		},
		RunFor:      runFor,
		SampleEvery: 2 * time.Millisecond,
	})
	return res.Trace.QoS()
}

type udpScenarioResult struct {
	completeness check.Verdict
	qos          check.QoS
	drops        int
	dups         int
	reorders     int
}

// runUDPScenario runs the live heartbeat scenario (runLiveHeartbeat) on a
// 4-process cluster over the UDP datagram transport cfg describes, with
// model planning its messages (nil: none).
func runUDPScenario(model network.Network, cfg udpnet.Config) (udpScenarioResult, error) {
	const n = 4
	col := &trace.Collector{}
	cfg.N, cfg.Trace = n, col
	tr, err := udpnet.NewTransport(cfg)
	if err != nil {
		return udpScenarioResult{}, fmt.Errorf("E18: %w", err)
	}
	c := live.NewCluster(live.Config{N: n, Network: model, Seed: cfg.Seed, Trace: col, Transport: tr})
	defer c.Stop()
	// InitialTimeout 5 periods: headroom against scheduler stalls so the
	// clean row's "no false suspicions" gate measures the transport, not the
	// CI machine's jitter. The default additive policy keeps that headroom;
	// PolicyJacobson re-derives the timeout from observed gaps (~2 periods on
	// a clean loopback), which one 12 ms stall beats.
	ft := runLiveHeartbeat(c, n, heartbeat.Options{Period: livePeriod, InitialTimeout: 5 * livePeriod})
	return udpScenarioResult{
		completeness: ft.StrongCompleteness(),
		qos:          ft.QoS(),
		drops:        col.TotalDropped(),
		dups:         col.LinkEvents("live.dup"),
		reorders:     col.LinkEvents("udp.reorder"),
	}, nil
}

// e18Cluster is the outcome of the mixed-transport kill/restart phase.
type e18Cluster struct {
	detect  time.Duration // SIGKILL → both survivors suspect the victim
	recover time.Duration // restart → nobody suspects it, leader agreed
	udpOut  int64         // restarted node's datagram counters
	udpIn   int64
}

// e18ClusterPhase runs 3 real ecnode processes with heartbeat_transport=udp
// (ring beats as datagrams, consensus on TCP), SIGKILLs a follower, awaits
// suspicion, restarts it, awaits reconvergence, and verifies a proposal
// through the restarted node commits with agreeing logs and nonzero
// datagram counters.
func e18ClusterPhase() (e18Cluster, error) {
	var ph e18Cluster
	dir, err := os.MkdirTemp("", "e18-")
	if err != nil {
		return ph, err
	}
	defer os.RemoveAll(dir)
	bins, err := cluster.Build(dir)
	if err != nil {
		return ph, err
	}
	c, err := cluster.Launch(bins, dir, cluster.GenOptions{N: 3, HeartbeatTransport: cluster.TransportUDP})
	if err != nil {
		return ph, fmt.Errorf("E18: %w", err)
	}
	defer c.Stop()
	if resp, perr := cluster.ProposeValue(c.Addrs[0], "e18-seed", 20*time.Second); perr != nil || !resp.OK {
		return ph, fmt.Errorf("E18: seed proposal failed: ok=%v err=%v", resp.OK, perr)
	}

	const victim = 3
	killed := time.Now()
	if err := c.Node(victim).Kill(); err != nil {
		return ph, err
	}
	if err := c.AwaitSuspected(victim); err != nil {
		return ph, fmt.Errorf("E18: %w", err)
	}
	ph.detect = time.Since(killed)

	restarted := time.Now()
	if err := c.Node(victim).Restart(); err != nil {
		return ph, err
	}
	if err := c.AwaitRejoined(victim); err != nil {
		return ph, fmt.Errorf("E18: %w", err)
	}
	ph.recover = time.Since(restarted)

	if resp, perr := cluster.ProposeValue(c.Addrs[victim-1], "e18-after-restart", 60*time.Second); perr != nil || !resp.OK {
		return ph, fmt.Errorf("E18: proposal via restarted node failed: ok=%v err=%v", resp.OK, perr)
	}
	st, err := cluster.Status(c.Addrs[victim-1], 2*time.Second)
	if err != nil {
		return ph, err
	}
	ph.udpOut, ph.udpIn = st.UDPOut, st.UDPIn
	if st.Transport != cluster.TransportUDP || ph.udpOut == 0 || ph.udpIn == 0 {
		return ph, fmt.Errorf("E18: heartbeats not demonstrably on UDP (transport=%q out=%d in=%d)",
			st.Transport, ph.udpOut, ph.udpIn)
	}
	if err := c.CheckLogs(); err != nil {
		return ph, fmt.Errorf("E18: %w", err)
	}
	return ph, nil
}

// detCell formats a QoS detection figure for the table ("-" when the crash
// was never permanently detected).
func detCell(q check.QoS) string {
	if q.AvgDetection < 0 {
		return "-"
	}
	return msd(q.AvgDetection)
}
