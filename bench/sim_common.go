package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// countingNet wraps the link model — the network.Network interface the
// simulator already accepts — to count Plan calls, count the sends of chosen
// kinds inside a steady-state window (the messages-per-period check), and,
// when timed, cost each call. The simulator calls it from one goroutine at a
// time, so plain fields suffice.
type countingNet struct {
	inner          network.Network
	kinds          map[string]bool
	winFrom, winTo time.Duration
	timed          bool

	plans    int64
	inWindow int64
	ns       int64
}

func (c *countingNet) Plan(from, to dsys.ProcessID, kind string, now time.Duration, rng *rand.Rand) (time.Duration, bool) {
	c.plans++
	if now >= c.winFrom && now < c.winTo && c.kinds[kind] {
		c.inWindow++
	}
	if !c.timed {
		return c.inner.Plan(from, to, kind, now, rng)
	}
	t := time.Now()
	d, drop := c.inner.Plan(from, to, kind, now, rng)
	c.ns += int64(time.Since(t))
	return d, drop
}

// pinOneCPU runs the simulator on one P and returns the undo. A kernel runs
// one task at a time, handing a baton between goroutines; with a second P
// idle the Go scheduler sometimes wakes the next task there, and the futex
// round trips make the same scenario's wall time wander by ±40%. One P is
// also how the experiment harness runs kernels: one per worker, each worker
// on its own core.
func pinOneCPU() func() {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

func kindSet(kinds ...string) map[string]bool {
	s := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		s[k] = true
	}
	return s
}

// seedFraction maps a seed to [0, 1): the base every crash offset of a run is
// shifted by.
func seedFraction(seed int64) float64 {
	return float64(uint64(seed)*0x9e3779b97f4a7c15>>11) / (1 << 53)
}

// stratified spreads the i-th of k crash offsets evenly over one period,
// shifted by a seeded base: every run covers every phase of the heartbeat
// period once, whatever its seed, so the seed moves individual scenarios but
// not the run's median.
func stratified(base float64, i, k int, period time.Duration) time.Duration {
	f := base + float64(i)/float64(k)
	f -= float64(int(f))
	return time.Duration(f * float64(period))
}

const floorKind = "bench.floor"

// floorRun replays a logged message pattern — who sent to whom, bucketed to
// tick — on a fresh kernel whose tasks do nothing: a tick loop per process
// re-sends that tick's messages with a nil payload and an empty receive loop
// consumes them. The wall time is the kernel's share of the original run
// (timing wheel, arena, dispatch, link model); the rest of sim_wall_s is the
// protocol layers' self time.
func floorRun(n int, net network.Network, events []trace.MsgEvent, tick, horizon time.Duration) time.Duration {
	ticks := int(horizon/tick) + 1
	// dests[p][t] lists the destinations process p+1 sent to during tick t.
	dests := make([][][]dsys.ProcessID, n)
	for i := range dests {
		dests[i] = make([][]dsys.ProcessID, ticks)
	}
	for i := range events {
		e := &events[i]
		if e.From == e.To {
			continue
		}
		if t := int(e.At / tick); t < ticks {
			dests[e.From-1][t] = append(dests[e.From-1][t], e.To)
		}
	}
	k := sim.New(sim.Config{N: n, Network: net, Seed: 1})
	for _, id := range dsys.Pids(n) {
		mine := dests[id-1]
		next := 0
		k.SpawnRecvLoop(id, "floor-recv", func(dsys.Proc, *dsys.Message) {}, floorKind)
		k.SpawnTickLoop(id, "floor-send", dsys.TickLoop{Period: tick, Immediate: true, Fn: func(p dsys.Proc) {
			if next < len(mine) {
				for _, to := range mine[next] {
					p.Send(to, floorKind, nil)
				}
			}
			next++
		}})
	}
	t := time.Now()
	k.Run(horizon)
	return time.Since(t)
}

// tracedPasses runs pass — one untraced-then-traced measurement of a sim
// scenario, returning its per-layer metrics and derived readings — while the
// window lasts, and reports each key's median over the passes. How many passes
// fit depends on the machine, so the workload's exact metrics are taken from
// the first pass alone.
func tracedPasses(r *report, o runOpts, pass func(i int) (m, info map[string]float64)) {
	ms, infos := map[string][]float64{}, map[string][]float64{}
	start := time.Now()
	for i := 0; i == 0 || (time.Since(start)*time.Duration(i+1)/time.Duration(i) < o.window() && len(r.Problems) == 0); i++ {
		m, info := pass(i)
		for k, v := range m {
			ms[k] = append(ms[k], v)
		}
		for k, v := range info {
			infos[k] = append(infos[k], v)
		}
	}
	for k, vs := range ms {
		r.Metrics[k] = median(vs)
		r.Samples[k] = len(vs)
	}
	for _, k := range o.exact {
		if vs, ok := ms[k]; ok {
			r.Metrics[k] = vs[0]
			r.Samples[k] = 1
		}
	}
	for k, vs := range infos {
		r.Info[k] = median(vs)
	}
}
