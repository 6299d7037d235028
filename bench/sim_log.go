package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/ring"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	simLogN = 5
	// Clients attach to the four followers, one command per origin per
	// virtual millisecond — a steady stream the default batch and pipeline
	// settings keep up with; the leader p1 is the process that crashes, so no
	// submitted command dies with its origin.
	simLogPerTick = 1
	simLogTick    = time.Millisecond
	simLogLeader  = dsys.ProcessID(1)
	// One scenario: load for simLogLoad of virtual time with the leader
	// crashed half-way (plus the seeded offset), then simLogDrain without new
	// load so every command can commit.
	simLogLoad  = 2 * time.Second
	simLogDrain = 500 * time.Millisecond
	// Commands submitted while the detectors and the first instances settle
	// are committed and checked but not timed.
	simLogWarm = 250 * time.Millisecond
	// simLogExactReps scenarios feed the virtual-time metrics, so those depend
	// on the seed alone; further repetitions only add wall-clock samples.
	simLogExactReps = 64
)

// simLogRun is one scenario's outcome.
type simLogRun struct {
	build, wall time.Duration
	events      uint64
	mallocs     uint64
	latNs       []int64 // virtual Submit → Apply at the origin
	failoverMs  float64 // virtual crash → first commit of a command submitted after it
	attempted   int64
	failed      int64
	applied     int64
	perPeriod   float64
	plans       int64
	planNs      int64
	detectMs    float64
	leaderMs    float64
	probes      []*probedDetector
	rings       []*ring.Detector
	log         []trace.MsgEvent
	slotApply   []map[int]time.Duration
	ref         []core.AppliedEntry
	due         map[cmdID]time.Duration
	callMs      float64
	horizon     time.Duration
	keep        any
}

// runSimLog simulates one replicated-log scenario on the deterministic
// kernel and checks the log invariants.
func runSimLog(r *report, o runOpts, seed int64, crashAt time.Duration, traced bool) *simLogRun {
	load, drain, warm := simLogLoad, simLogDrain, simLogWarm
	if o.quick {
		load, drain, warm = 400*time.Millisecond, 300*time.Millisecond, 100*time.Millisecond
		crashAt = crashAt - simLogLoad/2 + load/2
	}
	out := &simLogRun{horizon: load + drain}
	net := &countingNet{
		inner: network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond}},
		kinds: kindSet(ring.KindBeat, ring.KindWatch), winFrom: 50 * time.Millisecond, winTo: 100 * time.Millisecond,
		timed: traced,
	}
	var col *trace.Collector
	if traced {
		col = trace.NewCollector()
		out.slotApply = make([]map[int]time.Duration, simLogN)
		out.due = map[cmdID]time.Duration{}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	k := sim.New(sim.Config{N: simLogN, Network: net, Seed: seed, Trace: col})
	reps := make([]*core.Replica, simLogN)
	out.rings = make([]*ring.Detector, simLogN)
	out.probes = make([]*probedDetector, simLogN)
	// sentAt[origin-1][seq-1] is the virtual submit time of each command.
	sentAt := make([][]time.Duration, simLogN)
	acked := make([]int64, simLogN)
	recovered := time.Duration(-1)
	for _, id := range dsys.Pids(simLogN) {
		i := int(id) - 1
		if traced {
			out.slotApply[i] = map[int]time.Duration{}
		}
		apply := func(slot int, cmd core.Command) {
			now := k.Now()
			if m := out.slotApply; m != nil {
				if _, seen := m[i][slot]; !seen {
					m[i][slot] = now
				}
			}
			if cmd.Origin != id {
				return
			}
			at := sentAt[i][cmd.Seq-1]
			acked[i] = cmd.Seq
			if at >= warm {
				out.latNs = append(out.latNs, int64(now-at))
			}
			if recovered < 0 && at >= crashAt {
				recovered = now
			}
		}
		k.Spawn(id, "replica", func(p dsys.Proc) {
			rd := ring.Start(p, ring.Options{Period: ringPeriod})
			out.rings[i] = rd
			var det fd.EventuallyConsistent = rd
			if traced {
				out.probes[i] = &probedDetector{inner: rd}
				det = out.probes[i]
			}
			reps[i] = core.StartReplica(p, core.Config{Detector: det, Apply: apply})
		})
	}
	k.CrashAt(simLogLeader, crashAt)
	var built time.Time
	k.ScheduleFunc(1, func(time.Duration) { built = time.Now() })
	k.Every(simLogTick, simLogTick, func(now time.Duration) {
		if now >= load {
			return
		}
		for _, id := range dsys.Pids(simLogN) {
			if id == simLogLeader {
				continue
			}
			for j := 0; j < simLogPerTick; j++ {
				seq := int64(len(sentAt[id-1]))
				sentAt[id-1] = append(sentAt[id-1], now)
				cmd := reps[id-1].Submit(payloadFor(o.seed, id, seq))
				if out.due != nil {
					out.due[cmdID{id, cmd.Seq}] = now
				}
			}
		}
	})
	if traced {
		// Detector outputs sampled in virtual time, as events in the same
		// timeline as the messages.
		detectAt, leaderAt := time.Duration(-1), time.Duration(-1)
		k.Every(crashAt, time.Millisecond, func(now time.Duration) {
			if detectAt >= 0 && leaderAt >= 0 {
				return
			}
			var dets []fd.EventuallyConsistent
			for _, id := range dsys.Pids(simLogN) {
				if id != simLogLeader {
					dets = append(dets, out.probes[id-1])
				}
			}
			detected, led := converged(dets, simLogLeader)
			if detectAt < 0 && detected {
				detectAt = now
				out.detectMs = msOf(float64(now - crashAt))
			}
			if leaderAt < 0 && led {
				leaderAt = now
				out.leaderMs = msOf(float64(now - crashAt))
			}
		})
	}
	k.Run(out.horizon)
	end := time.Now()
	runtime.ReadMemStats(&ms1)

	out.build, out.wall = built.Sub(t0), end.Sub(built)
	out.events, out.mallocs = k.Events(), ms1.Mallocs-ms0.Mallocs
	out.plans, out.planNs = net.plans, net.ns
	out.perPeriod = float64(net.inWindow) / float64((net.winTo-net.winFrom)/ringPeriod)
	if col != nil {
		out.log = col.Events()
	}
	out.keep = []any{k, reps}

	ackedBy := map[dsys.ProcessID]int64{}
	for _, id := range dsys.Pids(simLogN) {
		if id == simLogLeader {
			continue
		}
		sent := int64(len(sentAt[id-1]))
		out.attempted += sent
		out.failed += sent - acked[id-1]
		ackedBy[id] = acked[id-1]
	}
	if recovered >= 0 {
		out.failoverMs = msOf(float64(recovered - crashAt))
	} else {
		r.problemf("sim_log seed %d: nothing submitted after the crash ever committed", seed)
	}
	logs := map[dsys.ProcessID][]core.AppliedEntry{}
	sus := map[dsys.ProcessID]fd.Suspector{}
	for _, id := range dsys.Pids(simLogN) {
		if id == simLogLeader {
			continue
		}
		t := time.Now()
		logs[id] = reps[id-1].Applied()
		if out.callMs == 0 {
			out.callMs = msOf(float64(time.Since(t)))
		}
		sus[id] = out.rings[id-1]
	}
	out.failed += checkLogs(r, logs, ackedBy, o.seed)
	checkDetectors(r, sus, simLogLeader)
	if out.perPeriod != simLogN {
		r.problemf("sim_log: ring sent %v messages per period, closed form says %d", out.perPeriod, simLogN)
	}
	out.ref = logs[simLogN]
	out.applied = int64(len(out.ref))
	return out
}

// runSimLogWorkload runs sim_log: the scenario repeated over derived seeds
// until the window is filled.
func runSimLogWorkload(o runOpts) *report {
	r := newReport("sim_log", o.seed, o.traced)
	defer pinOneCPU()()
	base := seedFraction(o.seed)
	rep := func(i int, traced bool) *simLogRun {
		crashAt := simLogLoad/2 + stratified(base, i%simLogExactReps, simLogExactReps, ringPeriod)
		run := runSimLog(r, o, o.seed*1000+int64(i), crashAt, traced)
		r.Attempted += run.attempted
		r.Failed += run.failed
		return run
	}
	if o.traced {
		simLogLayers(r, o, rep)
		return r
	}
	var setups, failovers, repOps []float64
	var lat []int64
	var wall time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		var heap0 uint64
		if i == 0 {
			heap0 = heapLive()
		}
		run := rep(i, false)
		if i == 0 {
			r.Metrics[mRetained] = (float64(heapLive()) - float64(heap0)) / float64(run.applied)
			runtime.KeepAlive(run)
		}
		run.keep = nil
		setups = append(setups, run.build.Seconds())
		wall += run.wall
		repOps = append(repOps, float64(run.attempted-run.failed)/run.wall.Seconds())
		if i < simLogExactReps {
			lat = append(lat, run.latNs...)
			failovers = append(failovers, run.failoverMs)
		}
		if i+1 >= simLogExactReps && time.Since(start)+(run.build+run.wall)/2 >= o.window() {
			break
		}
		if len(r.Problems) > 0 {
			break
		}
	}
	m := r.Metrics
	m[mSetup] = median(setups)
	// Each repetition is a slice of the run (see fastHigh).
	m[mOps] = fastHigh(repOps)
	m[mP50] = percentile(nsToSortedMs(lat), 50)
	// Failover is bimodal — it depends on which side of the ring's re-watch
	// the crash lands — and the crash offsets cover both sides evenly.
	m[mTail] = mean(failovers)
	r.Samples[mSetup] = len(setups)
	r.Samples[mOps] = len(repOps)
	r.Samples[mP50] = len(lat)
	r.Samples[mTail] = len(failovers)
	r.Info["sim_wall_s"] = wall.Seconds() / float64(len(setups))
	r.Info["repetitions"] = float64(len(setups))
	return r
}

// simLogLayers fills the per-layer metrics: per pass, an untraced scenario,
// the same scenario traced, and the floor replay of its log; passes repeat
// while the window lasts and each metric is the median over passes.
func simLogLayers(r *report, o runOpts, rep func(int, bool) *simLogRun) {
	tracedPasses(r, o, func(i int) (m, info map[string]float64) {
		m, info = map[string]float64{}, map[string]float64{}
		refWall := rep(i, false).wall
		p0 := readProc()
		run := rep(i, true)
		p1 := readProc()
		var peak runtime.MemStats
		runtime.ReadMemStats(&peak)
		run.keep = nil

		join := joinLog(run.log)
		join.slotLayers(m, run.ref, run.slotApply, simLogLeader)
		var wait []float64
		for id, due := range run.due {
			if at, ok := join.firstKick[id]; ok {
				wait = append(wait, msOf(float64(at-due)))
			}
		}
		if len(wait) > 0 {
			m["core.queue_wait_ms"] = median(wait)
		}
		m["core.applied_call_ms"] = run.callMs

		var calls, ns int64
		falseSusp := 0
		for i, p := range run.probes {
			calls += p.calls.Load()
			ns += p.ns.Load()
			falseSusp += run.rings[i].FalseSuspicions()
		}
		m["fd.query_ns"] = float64(ns) / float64(calls)
		m["fd.false_suspicions"] = float64(falseSusp)
		m["fd.msgs_per_period"] = run.perPeriod
		m["fd.detect_ms"] = run.detectMs
		m["fd.leader_ms"] = run.leaderMs

		floor := floorRun(simLogN, network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond}},
			run.log, simLogTick, run.horizon)
		m["sim.events"] = float64(run.events)
		m["sim.events_s"] = float64(run.events) / run.wall.Seconds()
		m["sim.allocs_per_event"] = float64(run.mallocs) / float64(run.events)
		m["sim.build_s"] = run.build.Seconds()
		m["sim.floor_wall_s"] = floor.Seconds()
		m["sim.peak_heap_mb"] = float64(peak.HeapSys-peak.HeapReleased) / (1 << 20)
		m["network.plans"] = float64(run.plans)
		m["network.plan_ns"] = float64(run.planNs) / float64(run.plans)
		m["trace.overhead_frac"] = run.wall.Seconds()/refWall.Seconds() - 1
		procLayer(m, p0, p1, run.attempted)
		info["trace.wall_ratio"] = run.wall.Seconds() / refWall.Seconds()
		info["sim_wall_s"] = refWall.Seconds()
		info["protocol.self_wall_s"] = refWall.Seconds() - floor.Seconds()
		return m, info
	})
}
