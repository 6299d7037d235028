package expt

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/heartbeat"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/tcpnet"
	"repro/internal/trace"
)

// E13MeshChaos is a supplementary experiment on the real TCP transport: the
// heartbeat ◇P detector runs over loopback sockets (package tcpnet) while
// the cluster's network model drops and duplicates messages (fair-lossy
// links), the mesh forces connection resets with reconnect, and one process
// crashes.
// It is the live counterpart of E12: the detector's completeness must
// survive every scenario (the transport's reconnect keeps links fair-lossy
// instead of going permanently dark), with faults costing detection latency
// and mistakes, not correctness. Unlike the simulator experiments the
// numbers are wall-clock and machine-dependent.
func E13MeshChaos(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Heartbeat ◇P over the real TCP mesh under injected transport faults (supplementary; n=4)",
		Claim:   "supplement to Section 4: on a fair-lossy, reconnecting transport the detector keeps strong completeness; faults only cost latency and mistakes",
		Columns: []string{"faults", "completeness", "worst detection", "mistakes", "drops", "resets", "redials"},
	}
	lossy := network.FairLossy{P: 0.05, Under: network.Reliable{Latency: network.Fixed(0)}}
	scenarios := []struct {
		name   string
		cfg    tcpnet.Config
		resets bool
	}{
		{"none", tcpnet.Config{}, false},
		{"5% drop + 5% dup", tcpnet.Config{Seed: 5, Network: network.Duplicating{P: 0.05, MaxCopies: 2, Under: lossy}}, false},
		{"5% drop + conn resets", tcpnet.Config{Seed: 7, Network: lossy, ResetP: 0.01}, true},
	}
	if quick {
		scenarios = scenarios[1:] // skip the clean baseline in quick mode
	}
	// The scenarios run on real loopback sockets, so fanning them across the
	// worker pool overlaps their ≈1.5s wall-clock runs; each scenario owns a
	// private mesh (its own listeners and trace collector).
	type meshTrial struct {
		res  meshScenarioResult
		rerr error
	}
	results := runTrials(len(scenarios), func(i int) meshTrial {
		res, rerr := runMeshScenario(scenarios[i].cfg, scenarios[i].resets)
		return meshTrial{res: res, rerr: rerr}
	})
	var err error
	for i, sc := range scenarios {
		res, rerr := results[i].res, results[i].rerr
		if rerr != nil {
			return t, rerr
		}
		worst := "-"
		if res.qos.WorstDetection >= 0 {
			worst = msd(res.qos.WorstDetection)
		}
		t.AddRow(sc.name, mark(res.completeness.Holds), worst, res.qos.Mistakes,
			res.drops, res.resets, res.redials)
		if err == nil {
			err = checkf(res.completeness.Holds, "E13", "%s: strong completeness violated on the mesh", sc.name)
		}
		if err == nil {
			err = checkf(res.qos.WorstDetection >= 0, "E13", "%s: crash never permanently detected", sc.name)
		}
	}
	t.Notes = append(t.Notes,
		"wall-clock run over real loopback sockets (≈1.5s per row); detection numbers are machine-dependent",
		"redials counts successful (re)connections — the reconnect machinery is what keeps the lossy scenarios fair-lossy rather than permanently dark")
	return t, err
}

type meshScenarioResult struct {
	completeness check.Verdict
	qos          check.QoS
	drops        int
	resets       int
	redials      int
}

// runMeshScenario runs the live heartbeat scenario (runLiveHeartbeat) on a
// fresh 4-process TCP mesh with cfg's faults, forcing a reset of every
// connection each 300ms when asked.
func runMeshScenario(cfg tcpnet.Config, forcedResets bool) (meshScenarioResult, error) {
	const n = 4
	col := &trace.Collector{}
	cfg.N, cfg.Trace = n, col
	m, err := tcpnet.New(cfg)
	if err != nil {
		return meshScenarioResult{}, fmt.Errorf("E13: %w", err)
	}
	defer m.Stop()
	if forcedResets {
		done, exited := make(chan struct{}), make(chan struct{})
		defer func() { close(done); <-exited }()
		go func() {
			defer close(exited)
			tick := time.NewTicker(300 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					m.ResetConns()
				case <-done:
					return
				}
			}
		}()
	}
	tr := runLiveHeartbeat(m.Cluster(), n, heartbeat.Options{Period: livePeriod})
	return meshScenarioResult{
		completeness: tr.StrongCompleteness(),
		qos:          tr.QoS(),
		drops:        col.TotalDropped(),
		resets:       col.LinkEvents("tcp.reset"),
		redials:      col.LinkEvents("tcp.dial"),
	}, nil
}

// The live detector scenario every wall-clock detector row runs (E13, E15's
// detection cell, E18's live rows): heartbeat ◇P on each process, liveVictim
// crashed at 400ms, every detector sampled each period for 1.5s.
const (
	livePeriod = 10 * time.Millisecond
	liveVictim = dsys.ProcessID(2)
)

// runLiveHeartbeat runs the live detector scenario on c, a cluster of n
// processes, and returns the sampled trace.
func runLiveHeartbeat(c *live.Cluster, n int, opts heartbeat.Options) check.FDTrace {
	return fdlab.RunLive(c, fdlab.Setup{
		N:           n,
		Crashes:     map[dsys.ProcessID]time.Duration{liveVictim: 400 * time.Millisecond},
		Build:       func(p dsys.Proc) any { return heartbeat.Start(p, opts) },
		SampleEvery: livePeriod,
		RunFor:      1500 * time.Millisecond,
	})
}
