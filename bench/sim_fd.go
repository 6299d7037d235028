package main

import (
	"runtime"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	fdPeriod  = 10 * time.Millisecond
	fdCrashAt = 500 * time.Millisecond // plus the seeded offset
	// The steady-state window of the messages-per-period check closes before
	// the earliest crash.
	fdWinFrom, fdWinTo = 250 * time.Millisecond, 500 * time.Millisecond
	// fdExactReps scenarios feed the virtual-time metrics, so those depend on
	// the seed alone; further repetitions only add wall-clock samples.
	fdExactReps = 4
)

// fdVariant is one detector of the sim_fd_scale scenario.
type fdVariant struct {
	name  string
	n     int
	kinds []string
	build func(p dsys.Proc) fd.Suspector
	// after is the virtual time simulated past the crash.
	after time.Duration
	// expected is the closed-form steady-state messages per period.
	expected int
	// sample is the virtual-time grid on which survivors are polled.
	sample time.Duration
}

func fdVariants(quick bool) []fdVariant {
	nT, nH, nR := 2048, 128, 512
	if quick {
		nT, nH, nR = 64, 16, 24
	}
	return []fdVariant{
		{name: "transform", n: nT, kinds: []string{transform.KindAlive, transform.KindList},
			build: func(p dsys.Proc) fd.Suspector {
				return transform.Start(p, fdtest.NewScripted(1), transform.Options{Period: fdPeriod})
			},
			after: 200 * time.Millisecond, expected: 2 * (nT - 1), sample: time.Millisecond},
		{name: "heartbeat", n: nH, kinds: []string{heartbeat.KindAlive},
			build: func(p dsys.Proc) fd.Suspector {
				return heartbeat.Start(p, heartbeat.Options{Period: fdPeriod})
			},
			after: 200 * time.Millisecond, expected: nH*nH - nH, sample: time.Millisecond},
		// The ring's suspicion travels hop by hop, so it needs Θ(n) periods.
		{name: "ring", n: nR, kinds: []string{ring.KindBeat, ring.KindWatch},
			build: func(p dsys.Proc) fd.Suspector {
				return ring.Start(p, ring.Options{Period: fdPeriod})
			},
			after: time.Duration(2*nR)*fdPeriod + time.Second, expected: nR, sample: fdPeriod / 2},
	}
}

// fdRun is one detector scenario's outcome.
type fdRun struct {
	build, wall time.Duration
	events      uint64
	mallocs     uint64
	detectNs    []int64 // virtual crash → suspicion, one per survivor that detected
	allDetectMs float64 // virtual crash → last survivor's suspicion
	perPeriod   float64
	plans       int64
	planNs      int64
	queries     int64
	queryNs     int64
	log         []trace.MsgEvent
	horizon     time.Duration
	keep        any // kernel and modules, kept alive for the retained-heap reading
}

// runDetector simulates one detector population through one mid-ring crash
// and checks the ◇P/◇C outcome.
func runDetector(r *report, v fdVariant, seed int64, crashAt time.Duration, traced bool) *fdRun {
	out := &fdRun{horizon: crashAt + v.after}
	net := &countingNet{
		inner: network.Reliable{Latency: network.Fixed(time.Millisecond)},
		kinds: kindSet(v.kinds...), winFrom: fdWinFrom, winTo: fdWinTo, timed: traced,
	}
	var col *trace.Collector
	if traced {
		col = trace.NewCollector()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	k := sim.New(sim.Config{N: v.n, Network: net, Seed: seed, Trace: col})
	mods := make([]fd.Suspector, v.n)
	for _, id := range dsys.Pids(v.n) {
		k.Spawn(id, "fd-setup", func(p dsys.Proc) { mods[p.ID()-1] = v.build(p) })
	}
	victim := dsys.ProcessID(v.n / 2)
	k.CrashAt(victim, crashAt)
	// Every module exists once virtual time moves: that instant ends set-up.
	var built time.Time
	k.ScheduleFunc(1, func(time.Duration) { built = time.Now() })

	pending := make([]dsys.ProcessID, 0, v.n-1)
	for _, id := range dsys.Pids(v.n) {
		if id != victim {
			pending = append(pending, id)
		}
	}
	// Survivors are polled on an absolute virtual-time grid, so a latency is
	// a grid instant minus the seeded crash instant.
	k.Every((crashAt/v.sample+1)*v.sample, v.sample, func(now time.Duration) {
		if len(pending) == 0 {
			return
		}
		var t time.Time
		if traced {
			t = time.Now()
		}
		keep := pending[:0]
		for _, id := range pending {
			if mods[id-1].Suspected().Has(victim) {
				out.detectNs = append(out.detectNs, int64(now-crashAt))
			} else {
				keep = append(keep, id)
			}
		}
		out.queries += int64(len(pending))
		pending = keep
		if traced {
			out.queryNs += int64(time.Since(t))
		}
	})
	k.Run(out.horizon)
	end := time.Now()
	runtime.ReadMemStats(&ms1)

	out.build, out.wall = built.Sub(t0), end.Sub(built)
	out.events, out.mallocs = k.Events(), ms1.Mallocs-ms0.Mallocs
	out.plans, out.planNs = net.plans, net.ns
	out.perPeriod = float64(net.inWindow) / float64((fdWinTo-fdWinFrom)/fdPeriod)
	if col != nil {
		out.log = col.Events()
	}
	out.keep = []any{k, mods}

	if len(pending) > 0 {
		r.problemf("%s n=%d: %d survivors never suspected the crashed %v", v.name, v.n, len(pending), victim)
	} else {
		out.allDetectMs = msOf(float64(out.detectNs[len(out.detectNs)-1]))
	}
	if int(out.perPeriod) != v.expected || out.perPeriod != float64(int(out.perPeriod)) {
		r.problemf("%s n=%d: %v messages per period, closed form says %d", v.name, v.n, out.perPeriod, v.expected)
	}
	wrong := 0
	for _, id := range dsys.Pids(v.n) {
		if id == victim {
			continue
		}
		if s := mods[id-1].Suspected(); !s.Has(victim) || s.Len() != 1 {
			wrong++
		}
	}
	if wrong > 0 {
		r.problemf("%s n=%d: %d survivors end with a suspect set other than {%v}", v.name, v.n, wrong, victim)
	}
	return out
}

// runSimFD runs sim_fd_scale: the three detector scenarios back to back,
// repeated until the window is filled.
func runSimFD(o runOpts) *report {
	r := newReport("sim_fd_scale", o.seed, o.traced)
	defer pinOneCPU()()
	variants := fdVariants(o.quick)
	base := seedFraction(o.seed)
	opsPerRep := int64(0)
	for _, v := range variants {
		opsPerRep += int64(v.n - 1)
	}

	// one runs detector vi of the i-th scenario; rep runs all three.
	one := func(i, vi int, traced bool) *fdRun {
		v := variants[vi]
		crashAt := fdCrashAt + stratified(base, i%fdExactReps, fdExactReps, fdPeriod)
		fr := runDetector(r, v, o.seed*1000+int64(i*len(variants)+vi), crashAt, traced)
		r.Attempted += int64(v.n - 1)
		r.Failed += int64(v.n-1) - int64(len(fr.detectNs))
		return fr
	}
	rep := func(i int) []*fdRun {
		runs := make([]*fdRun, len(variants))
		for vi := range variants {
			runs[vi] = one(i, vi, false)
		}
		return runs
	}

	if o.traced {
		simFDLayers(r, o, variants, one)
		return r
	}

	var setups, tails []float64
	var detect []int64
	walls := make([][]float64, len(variants)) // per detector, one reading per repetition
	start := time.Now()
	for i := 0; ; i++ {
		var heap0 uint64
		if i == 0 {
			heap0 = heapLive()
		}
		runs := rep(i)
		var build, w time.Duration
		tail := 0.0
		for vi, fr := range runs {
			build += fr.build
			w += fr.wall
			walls[vi] = append(walls[vi], fr.wall.Seconds())
			if fr.allDetectMs > tail {
				tail = fr.allDetectMs
			}
			if i < fdExactReps {
				detect = append(detect, fr.detectNs...)
			}
		}
		if i == 0 {
			r.Metrics[mRetained] = (float64(heapLive()) - float64(heap0)) / float64(opsPerRep)
			runtime.KeepAlive(runs)
		}
		for _, fr := range runs {
			fr.keep = nil
		}
		setups = append(setups, build.Seconds())
		if i < fdExactReps {
			tails = append(tails, tail)
		}
		// Stop at the repetition boundary nearest the requested window.
		if i+1 >= fdExactReps && time.Since(start)+(build+w)/2 >= o.window() {
			break
		}
		if len(r.Problems) > 0 {
			break
		}
	}
	m := r.Metrics
	m[mSetup] = median(setups)
	// Each detector's runs are the slices of the run. They repeat identical
	// work and only a handful fit the window, so the fastest stands for the
	// detector — the run the box disturbed least — where the other workloads
	// take a quartile of many slices. The scenario's wall time is the sum of
	// the three detectors'.
	scenario := 0.0
	for _, ws := range walls {
		scenario += sortedCopy(ws)[0]
	}
	m[mOps] = float64(opsPerRep) / scenario
	m[mP50] = percentile(nsToSortedMs(detect), 50)
	m[mTail] = median(tails)
	r.Samples[mSetup] = len(setups)
	r.Samples[mP50] = len(detect)
	r.Samples[mTail] = len(tails)
	r.Info["sim_wall_s"] = scenario
	r.Info["repetitions"] = float64(len(setups))
	return r
}

// simFDLayers fills the per-layer metrics: per pass and per detector, an
// untraced run, the same run with the collector logging every message and the
// wrappers timing, and the floor replay of its log; passes repeat while the
// window lasts and each metric is the median over passes.
func simFDLayers(r *report, o runOpts, variants []fdVariant, one func(i, vi int, traced bool) *fdRun) {
	tracedPasses(r, o, func(i int) (m, info map[string]float64) {
		m, info = map[string]float64{}, map[string]float64{}
		var refWall, wall, build, floor time.Duration
		var events, mallocs uint64
		var plans, planNs, queries, queryNs int64
		var peak runtime.MemStats
		var cost procSnap // of the traced runs alone, not their references or floors
		for vi, v := range variants {
			refWall += one(i, vi, false).wall
			p0 := readProc()
			fr := one(i, vi, true)
			cost.add(p0, readProc())
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapSys-ms.HeapReleased > peak.HeapSys-peak.HeapReleased {
				peak = ms
			}
			wall += fr.wall
			build += fr.build
			events += fr.events
			mallocs += fr.mallocs
			plans += fr.plans
			planNs += fr.planNs
			queries += fr.queries
			queryNs += fr.queryNs
			m["fd.msgs_per_period"] += fr.perPeriod
			if fr.allDetectMs > m["fd.detect_ms"] {
				m["fd.detect_ms"] = fr.allDetectMs
			}
			info["fd.msgs_per_period."+v.name] = fr.perPeriod
			info["fd.detect_ms."+v.name] = fr.allDetectMs
			fr.keep = nil
			floor += floorRun(v.n, network.Reliable{Latency: network.Fixed(time.Millisecond)}, fr.log, fdPeriod, fr.horizon)
		}
		ops := int64(0)
		for _, v := range variants {
			ops += int64(v.n - 1)
		}
		m["sim.events"] = float64(events)
		m["sim.events_s"] = float64(events) / wall.Seconds()
		m["sim.allocs_per_event"] = float64(mallocs) / float64(events)
		m["sim.build_s"] = build.Seconds()
		m["sim.floor_wall_s"] = floor.Seconds()
		m["sim.peak_heap_mb"] = float64(peak.HeapSys-peak.HeapReleased) / (1 << 20)
		m["network.plans"] = float64(plans)
		m["network.plan_ns"] = float64(planNs) / float64(plans)
		m["fd.query_ns"] = float64(queryNs) / float64(queries)
		m["trace.overhead_frac"] = wall.Seconds()/refWall.Seconds() - 1
		procLayer(m, procSnap{}, cost, ops)
		info["trace.wall_ratio"] = wall.Seconds() / refWall.Seconds()
		info["sim_wall_s"] = refWall.Seconds()
		info["fd.self_wall_s"] = refWall.Seconds() - floor.Seconds()
		return m, info
	})
}
