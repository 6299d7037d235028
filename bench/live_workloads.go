package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/ring"
	"repro/internal/trace"
	"repro/internal/wire"
)

// runOpts are the inputs of one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64  // length of the measured window
	traced  bool     // emit per-layer metrics from a traced run instead
	quick   bool     // smoke-test size: tiny populations and warm-up
	exact   []string // the workload's exact metrics (set by runOne)
}

func (o runOpts) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// slice is the length of the stretches a steady window is cut into.
func (o runOpts) slice() time.Duration {
	if o.quick {
		return 50 * time.Millisecond
	}
	return 500 * time.Millisecond
}

// warmup is the load discarded before the measured window opens.
func (o runOpts) warmup() time.Duration {
	if o.quick {
		return 100 * time.Millisecond
	}
	return 2 * time.Second
}

// steadyCfg distinguishes the two fault-free workloads. Each loads the mesh
// twice with its two clients: an open loop at a fixed rate, which is where
// latency is read (timed from the instant each command was due), then a
// closed loop, which is where throughput is read. A closed loop alone would
// do for both on a quiet machine; on this one its latency wanders by ±20%
// between 15 s stretches of the same process while the open loop's stays
// within ±3%.
type steadyCfg struct {
	name        string
	live        liveCfg
	interval    time.Duration // open loop: each client sends perTick commands every interval
	perTick     int
	outstanding int // closed loop: commands each client keeps in flight
}

var (
	// 10k commands/s offered, about a sixth of what the closed loop reaches.
	liveBatched = steadyCfg{name: "live_batched", interval: time.Millisecond, perTick: 5, outstanding: 32}
	// 1k commands/s offered, about a quarter of what the closed loop reaches.
	liveSingle = steadyCfg{name: "live_single", live: liveCfg{maxBatch: 1, pipeline: 1},
		interval: 2 * time.Millisecond, perTick: 1, outstanding: 1}
)

// rate is the open loop's offered load, both clients together.
func (c steadyCfg) rate() float64 { return 2 * float64(c.perTick) / c.interval.Seconds() }

// procSnap is a reading of the process-wide cost counters.
type procSnap struct {
	mallocs uint64
	pauseNs uint64
	cpu     time.Duration
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs, cpu: cpuTime()}
}

// add accumulates the cost between two readings.
func (p *procSnap) add(from, to procSnap) {
	p.mallocs += to.mallocs - from.mallocs
	p.pauseNs += to.pauseNs - from.pauseNs
	p.cpu += to.cpu - from.cpu
}

// procLayer fills the proc.* metrics from two snapshots around ops operations.
func procLayer(m map[string]float64, a, b procSnap, ops int64) {
	if ops > 0 {
		m["proc.allocs_per_op"] = float64(b.mallocs-a.mallocs) / float64(ops)
		m["proc.cpu_s_per_kop"] = (b.cpu - a.cpu).Seconds() / (float64(ops) / 1000)
	}
	m["proc.gc_pause_ms"] = msOf(float64(b.pauseNs - a.pauseNs))
	m["proc.peak_rss_mb"] = peakRSSMB()
}

// segment is one measured stretch of a steady workload.
type segment struct {
	setups    []float64 // seconds per set-up
	opsPerSec float64   // closed loop, over its whole window
	latMs     []float64 // open loop, sorted, over its whole window
	lateMs    []float64 // open loop: how late each tick ran, sorted
	// Per-slice readings (see fastLow/fastHigh): throughput from the closed
	// loop, latency percentiles from the open loop.
	sliceOps, sliceP50, sliceP99 []float64
	attempted                    int64
	failed                       int64
	applied                      int64 // commands in the agreed log at the end
	retained                     float64
	proc                         [2]procSnap
	// traced only
	lc      *liveCluster
	clients []*client
	ref     []core.AppliedEntry
	callMs  float64
	from    int64
	until   int64
}

// setupsPerRun is how many times a fault-free live workload builds its
// cluster; the last one carries the load.
const setupsPerRun = 40

// liveSetup reduces a run's set-up times to setup_s. A live set-up ends with
// a first commit at each client, which waits for one or for two of core's
// 2 ms idle polls: the times are bimodal and their median flips between the
// modes whenever the mix nears one half, so the lower quartile — the one-poll
// mode unless three set-ups in four needed two — is reported instead.
func liveSetup(setups []float64) float64 { return fastLow(setups) }

// readyCluster builds a cluster with the workload's clients and drives it to
// its first commits. backlog and capacity size each client (see newClient).
func readyCluster(cfg steadyCfg, seed int64, backlog, capacity int, traced bool) (*liveCluster, []*client, error) {
	lcfg := cfg.live
	lcfg.traced = traced
	lc, err := newLiveCluster(lcfg)
	if err != nil {
		return nil, nil, err
	}
	// One client at the leader (p1, the ring's initial candidate) and one at
	// a follower.
	clients := []*client{
		newClient(lc, 1, seed, backlog, capacity, cfg.outstanding),
		newClient(lc, liveN, seed, backlog, capacity, cfg.outstanding),
	}
	if err := lc.awaitReady(clients); err != nil {
		lc.mesh.Stop()
		return nil, nil, err
	}
	return lc, clients, nil
}

// runSegment measures one stretch of a steady workload: set up, warm up, half
// the window under the open loop, half under the closed loop, drain, check.
func runSegment(r *report, cfg steadyCfg, o runOpts, window time.Duration, traced bool) *segment {
	seg := &segment{}
	// Enough room for 150k commands/s per client; a faster system would stop
	// being sampled and read low.
	capacity := int((window+o.warmup()).Seconds()*150e3) + 1024
	// Every command the open loop will send, so that no slowdown of the host,
	// however long the backlog it leaves, can make a send land on the ring
	// slot of a command still in flight.
	backlog := int(cfg.rate()/2*(window/2+o.warmup()).Seconds()) + cfg.outstanding
	var lc *liveCluster
	var clients []*client
	for i := 0; i < setupsPerRun; i++ {
		last := i == setupsPerRun-1
		b, c := cfg.outstanding, 16
		if last {
			b, c = backlog, capacity
		}
		t := time.Now()
		l, cls, err := readyCluster(cfg, o.seed, b, c, traced && last)
		if err != nil {
			r.problemf("set-up %d: %v", i, err)
			return seg
		}
		seg.setups = append(seg.setups, time.Since(t).Seconds())
		if last {
			lc, clients = l, cls
		} else {
			l.mesh.Stop()
		}
	}
	heap0 := heapLive()

	// load runs gen on both clients until the returned function is called,
	// then waits for every command sent to be acknowledged.
	load := func(gen func(*client, <-chan struct{})) (stopAndDrain func()) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *client) {
				defer wg.Done()
				gen(cl, stop)
			}(cl)
		}
		return func() {
			close(stop)
			wg.Wait()
			awaitAcks(clients, ackDeadline)
		}
	}

	// Open loop: warm-up, then half the window.
	for _, cl := range clients {
		cl.lateNs = make([]int64, 0, int((window+o.warmup())/cfg.interval)+16)
	}
	// Arrivals are Poisson, seeded. A constant gap would phase-lock the
	// generator to core's 2 ms idle poll: the phase, different in every run
	// and fixed within it, moved the median latency by ±15% between runs.
	drain := load(func(cl *client, stop <-chan struct{}) {
		gaps := rand.New(rand.NewSource(o.seed ^ int64(cl.id)<<20))
		cl.runOpen(cfg.interval, cfg.perTick, gaps, stop)
	})
	time.Sleep(o.warmup())
	seg.proc[0] = readProc()
	seg.from = nowNs()
	for _, cl := range clients {
		cl.from.Store(seg.from)
	}
	time.Sleep(window / 2)
	openUntil := nowNs()
	drain()

	// Closed loop: a short settle, then the other half.
	drain = load(func(cl *client, stop <-chan struct{}) { cl.runClosed(stop) })
	time.Sleep(o.warmup() / 4)
	closedFrom := nowNs()
	time.Sleep(window / 2)
	seg.until = nowNs()
	for _, cl := range clients {
		cl.until.Store(seg.until)
	}
	seg.proc[1] = readProc()
	drain()
	lc.awaitQuiescence(dsys.None, ackDeadline)
	lc.awaitAccuracy(dsys.None, ackDeadline)
	heap1 := heapLive()
	lc.mesh.Stop()

	var lat, late []int64
	var closedOps int64
	acked := map[dsys.ProcessID]int64{}
	for _, cl := range clients {
		seg.attempted += cl.sentInWin
		seg.failed += cl.sentInWin - cl.ackedWin
		for i, at := range cl.latAt {
			switch {
			case at < openUntil:
				lat = append(lat, cl.lat[i])
			case at >= closedFrom:
				closedOps++
			}
		}
		late = append(late, cl.lateNs...)
		acked[cl.id] = cl.acked.Load()
	}
	seg.opsPerSec = float64(closedOps) / (float64(seg.until-closedFrom) / 1e9)
	seg.latMs, seg.lateMs = nsToSortedMs(lat), nsToSortedMs(late)
	_, seg.sliceP50, seg.sliceP99 = sliceStats(clients, seg.from, openUntil, o.slice())
	seg.sliceOps, _, _ = sliceStats(clients, closedFrom, seg.until, o.slice())

	logs, callMs := lc.survivorLogs(dsys.None)
	seg.callMs = callMs
	seg.failed += checkLogs(r, logs, acked, o.seed)
	checkDetectors(r, lc.suspectors(dsys.None), dsys.None)
	seg.ref = logs[1]
	if n := len(seg.ref); n > 0 {
		seg.retained = (float64(heap1) - float64(heap0)) / float64(n)
	}
	if traced {
		seg.lc, seg.clients = lc, clients
	}
	runtime.KeepAlive(lc)
	return seg
}

// sliceStats cuts the window into whole slices and returns, per slice, the
// commands applied per second and the median and 99th percentile of their
// latencies.
func sliceStats(clients []*client, from, until int64, slice time.Duration) (ops, p50, p99 []float64) {
	n := int((until - from) / int64(slice))
	if n < 1 {
		return nil, nil, nil
	}
	bins := make([][]int64, n)
	for _, cl := range clients {
		for i, at := range cl.latAt {
			if b := int((at - from) / int64(slice)); b >= 0 && b < n {
				bins[b] = append(bins[b], cl.lat[i])
			}
		}
	}
	for _, bin := range bins {
		ops = append(ops, float64(len(bin))/slice.Seconds())
		if len(bin) > 0 {
			ms := nsToSortedMs(bin)
			p50 = append(p50, percentile(ms, 50))
			p99 = append(p99, percentile(ms, 99))
		}
	}
	return ops, p50, p99
}

// runLiveSteady runs live_batched or live_single.
func runLiveSteady(cfg steadyCfg, o runOpts) *report {
	r := newReport(cfg.name, o.seed, o.traced)
	if !o.traced {
		seg := runSegment(r, cfg, o, o.window(), false)
		fillSteadyEndToEnd(r, seg)
		return r
	}
	// Traced: an untraced reference stretch, then the same stretch with the
	// collector logging every message, the detector wrapped and slots stamped.
	// Their throughput ratio is the tracing overhead.
	w := o.window() / 3
	ref := runSegment(r, cfg, o, w, false)
	seg := runSegment(r, cfg, o, w, true)
	r.Attempted, r.Failed = ref.attempted+seg.attempted, ref.failed+seg.failed
	m := r.Metrics
	if ref.opsPerSec > 0 {
		ratio := fastHigh(seg.sliceOps) / fastHigh(ref.sliceOps)
		m["trace.overhead_frac"] = 1 - ratio
		r.Info["trace.ops_ratio"] = ratio
	}
	if seg.lc != nil {
		liveLayers(r, seg.lc, seg.clients, seg.ref, seg.from, seg.until, dsys.None)
		m["core.applied_call_ms"] = seg.callMs
		procLayer(m, seg.proc[0], seg.proc[1], seg.attempted-seg.failed)
		m["gen.late_p99_ms"] = percentile(seg.lateMs, 99)
	}
	transportProbes(m, o)
	return r
}

func fillSteadyEndToEnd(r *report, seg *segment) {
	r.Attempted, r.Failed = seg.attempted, seg.failed
	m := r.Metrics
	m[mSetup] = liveSetup(seg.setups)
	m[mOps] = fastHigh(seg.sliceOps)
	m[mP50] = fastLow(seg.sliceP50)
	m[mTail] = fastLow(seg.sliceP99)
	m[mRetained] = seg.retained
	r.Samples[mSetup] = len(seg.setups)
	r.Samples[mOps] = len(seg.sliceOps)
	r.Samples[mP50] = len(seg.latMs)
	r.Samples[mTail] = len(seg.latMs)
	// The same three over their whole windows, stalls and contended stretches
	// included, and the highest percentile the sample supports.
	r.Info["whole_window.ops_s"] = seg.opsPerSec
	r.Info["whole_window.op_p50_ms"] = percentile(seg.latMs, 50)
	r.Info["whole_window.op_p99_ms"] = percentile(seg.latMs, 99)
	if p := supportedTail(len(seg.latMs)); p > 99 {
		r.Info[fmt.Sprintf("whole_window.op_p%v_ms", p)] = percentile(seg.latMs, p)
	}
	r.Info["gen.late_p99_ms"] = percentile(seg.lateMs, 99)
}

// liveLayers fills the per-layer metrics a traced live cluster yields, from
// its message log, its slot stamps and its clients. from/until bound the
// measured window in harness time; crashed is the process crashed in it.
func liveLayers(r *report, lc *liveCluster, clients []*client, ref []core.AppliedEntry, from, until int64, crashed dsys.ProcessID) {
	m := r.Metrics
	events := lc.col.Events()
	join := joinLog(events)

	join.slotLayers(m, ref, lc.slotApply[:], crashed)

	// core: Submit cost, and the wait from Submit to the first announcement
	// that carries the command.
	var submitNs []int64
	var wait []float64
	for _, cl := range clients {
		submitNs = append(submitNs, cl.submitNs...)
		for k, due := range cl.allDue {
			if due < from || due >= until {
				continue
			}
			if at, ok := join.firstKick[cmdID{cl.id, int64(k + 1)}]; ok {
				wait = append(wait, msOf(float64(int64(at)-(due-lc.clockBase))))
			}
		}
	}
	if len(submitNs) > 0 {
		s := make([]float64, len(submitNs))
		for i, v := range submitNs {
			s[i] = float64(v)
		}
		m["core.submit_ns"] = median(s)
	}
	if len(wait) > 0 {
		m["core.queue_wait_ms"] = median(wait)
	}

	// fd: ring traffic per period inside the window, query cost through the
	// wrapper, retracted suspicions.
	fromC, untilC := time.Duration(from-lc.clockBase), time.Duration(until-lc.clockBase)
	if periods := float64(untilC-fromC) / float64(ringPeriod); periods > 0 {
		m["fd.msgs_per_period"] = float64(lc.col.SentBetween(fromC, untilC, ring.KindBeat, ring.KindWatch)) / periods
	}
	var calls, ns int64
	falseSusp := 0
	for i := range lc.probes {
		if p := lc.probes[i]; p != nil {
			calls += p.calls.Load()
			ns += p.ns.Load()
		}
		falseSusp += lc.rings[i].FalseSuspicions()
	}
	if calls > 0 {
		m["fd.query_ns"] = float64(ns) / float64(calls)
	}
	m["fd.false_suspicions"] += float64(falseSusp)

	// wire + tcpnet: what crossed the sockets, per command, and the codec's
	// cost replayed over the logged frame mix.
	frames, bytes := lc.mesh.WireStats()
	if n := float64(len(ref)); n > 0 {
		m["wire.bytes_per_cmd"] = float64(bytes) / n
		m["tcpnet.frames_per_cmd"] = float64(frames) / n
	}
	if frames > 0 {
		m["wire.bytes_per_frame"] = float64(bytes) / float64(frames)
	}
	wireReplay(m, events)
	m["tcpnet.drops"] += float64(lc.col.LinkEvents("tcp.overflow") + lc.col.LinkEvents("tcp.lost"))
	// Every directed link dials once; anything beyond is a redial.
	dials := lc.col.LinkEvents("tcp.dial") + lc.col.LinkEvents("tcp.dialfail")
	if extra := dials - liveN*(liveN-1); extra > 0 {
		m["tcpnet.redials"] += float64(extra)
	}
}

// wireReplay times wire.AppendFrame and wire.DecodeFrame over the frames the
// run actually sent (up to a cap), so the codec's cost is weighed by the
// workload's own frame mix.
func wireReplay(m map[string]float64, events []trace.MsgEvent) {
	const maxFrames = 50000
	fs := make([]wire.Frame, 0, maxFrames)
	for i := range events {
		e := &events[i]
		if e.From == e.To {
			continue
		}
		fs = append(fs, wire.Frame{From: e.From, To: e.To, Kind: e.Kind, Payload: e.Payload})
		if len(fs) == maxFrames {
			break
		}
	}
	if len(fs) == 0 {
		return
	}
	var buf []byte
	offs := make([]int, 0, len(fs)+1)
	t := time.Now()
	for i := range fs {
		offs = append(offs, len(buf))
		var err error
		if buf, err = wire.AppendFrame(buf, &fs[i]); err != nil {
			return
		}
	}
	enc := time.Since(t)
	offs = append(offs, len(buf))
	t = time.Now()
	for i := range fs {
		if _, err := wire.DecodeFrame(buf[offs[i]+4 : offs[i+1]]); err != nil {
			return
		}
	}
	dec := time.Since(t)
	m["wire.encode_ns_per_frame"] = float64(enc) / float64(len(fs))
	m["wire.decode_ns_per_frame"] = float64(dec) / float64(len(fs))
}

// ---------------------------------------------------------------------------
// live_failover

const (
	failoverRate     = 500 // commands per second, open loop
	failoverInterval = time.Second / failoverRate
	failoverWarm     = 150 * time.Millisecond
	failoverLead     = 100 * time.Millisecond // window opens this long before the crash, plus the seeded offset
	failoverTail     = 150 * time.Millisecond // load continues this long after service resumed
	minEpisodes      = 8
)

// episode is the outcome of one leader crash on a fresh mesh.
type episode struct {
	setup      float64 // seconds
	window     time.Duration
	inWindow   int64
	attempted  int64
	failed     int64
	applied    int64
	latNs      []int64
	lateNs     []int64
	failoverMs float64 // crash → first commit of a command due after it
	detectMs   float64 // traced: crash → every survivor suspects the victim
	leaderMs   float64 // traced: crash → survivors trust the same live process
	lc         *liveCluster
	client     *client
	ref        []core.AppliedEntry
	callMs     float64
	from       int64
	until      int64
	victim     dsys.ProcessID
}

// runEpisode crashes the trusted leader of a fresh n=3 mesh under an open
// loop aimed at a follower. offset shifts the crash inside the window.
func runEpisode(r *report, o runOpts, offset time.Duration, traced bool) *episode {
	ep := &episode{}
	const target = dsys.ProcessID(liveN) // a follower before and after the crash
	t := time.Now()
	lc, err := newLiveCluster(liveCfg{traced: traced})
	if err != nil {
		r.problemf("episode set-up: %v", err)
		return nil
	}
	// An open loop's backlog is bounded by the rate times the ack deadline.
	backlog := int(failoverRate * ackDeadline.Seconds())
	cl := newClient(lc, target, o.seed, backlog, 4*backlog, 0)
	cl.lateNs = make([]int64, 0, 4*backlog)
	if err := lc.awaitReady([]*client{cl}); err != nil {
		lc.mesh.Stop()
		r.problemf("episode set-up: %v", err)
		return nil
	}
	ep.setup = time.Since(t).Seconds()
	ep.lc, ep.client = lc, cl

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl.runOpen(failoverInterval, 1, nil, stop)
	}()
	time.Sleep(failoverWarm)
	ep.from = nowNs()
	cl.from.Store(ep.from)
	time.Sleep(failoverLead + offset)

	ep.victim = lc.detector(target).Trusted()
	if ep.victim == target || ep.victim == dsys.None {
		// A false suspicion moved leadership onto the client's replica; the
		// episode cannot measure a follower's view of a leader crash.
		close(stop)
		wg.Wait()
		lc.mesh.Stop()
		r.Info["failover_episodes_discarded"]++
		return nil
	}
	crashAt := nowNs()
	cl.crashAt.Store(crashAt)
	lc.mesh.Crash(ep.victim)

	deadline := crashAt + int64(ackDeadline)
	var detectAt, leaderAt int64
	for cl.recovered.Load() == 0 && nowNs() < deadline {
		if traced {
			pollDetectors(lc, ep.victim, &detectAt, &leaderAt)
		}
		time.Sleep(250 * time.Microsecond)
	}
	if traced {
		for (detectAt == 0 || leaderAt == 0) && nowNs() < deadline {
			pollDetectors(lc, ep.victim, &detectAt, &leaderAt)
			time.Sleep(250 * time.Microsecond)
		}
		ep.detectMs = msOf(float64(detectAt - crashAt))
		ep.leaderMs = msOf(float64(leaderAt - crashAt))
	}
	time.Sleep(failoverTail)
	ep.until = nowNs()
	cl.until.Store(ep.until)
	close(stop)
	wg.Wait()
	awaitAcks([]*client{cl}, ackDeadline)
	lc.awaitQuiescence(ep.victim, ackDeadline)
	lc.awaitAccuracy(ep.victim, ackDeadline)
	lc.mesh.Stop()

	ep.window = time.Duration(ep.until - ep.from)
	ep.inWindow, ep.attempted = cl.inWindow, cl.sentInWin
	ep.failed = cl.sentInWin - cl.ackedWin
	ep.latNs, ep.lateNs = cl.lat, cl.lateNs
	if rec := cl.recovered.Load(); rec != 0 {
		ep.failoverMs = msOf(float64(rec - crashAt))
	} else {
		r.problemf("no command due after the crash of %v committed within %v", ep.victim, ackDeadline)
	}
	logs, callMs := lc.survivorLogs(ep.victim)
	ep.callMs = callMs
	ep.failed += checkLogs(r, logs, map[dsys.ProcessID]int64{target: cl.acked.Load()}, o.seed)
	checkDetectors(r, lc.suspectors(ep.victim), ep.victim)
	ep.ref = logs[target]
	ep.applied = int64(len(ep.ref))
	return ep
}

// pollDetectors stamps the first instant every survivor suspects the victim,
// and the first instant the survivors trust one live process.
func pollDetectors(lc *liveCluster, victim dsys.ProcessID, detectAt, leaderAt *int64) {
	var dets []fd.EventuallyConsistent
	for _, id := range dsys.Pids(liveN) {
		if id != victim {
			dets = append(dets, lc.detector(id))
		}
	}
	detected, led := converged(dets, victim)
	now := nowNs()
	if *detectAt == 0 && detected {
		*detectAt = now
	}
	if *leaderAt == 0 && led {
		*leaderAt = now
	}
}

// runLiveFailover runs live_failover: leader-crash episodes on fresh meshes
// until the measured windows add up to the requested seconds.
func runLiveFailover(o runOpts) *report {
	r := newReport("live_failover", o.seed, o.traced)
	rng := rand.New(rand.NewSource(o.seed))
	budget := o.window()
	want := minEpisodes
	if o.quick {
		want = 2
	}
	if o.traced {
		budget /= 2
	}
	var eps []*episode
	heap0 := heapLive()
	p0 := readProc()
	start := time.Now()
	// Discarded episodes are retried, but not for ever.
	for tries := 0; (len(eps) < want || time.Since(start) < budget) && tries < 2*want+int(budget/(100*time.Millisecond)); tries++ {
		offset := time.Duration(rng.Int63n(int64(ringPeriod)))
		if ep := runEpisode(r, o, offset, o.traced); ep != nil {
			eps = append(eps, ep)
		}
		if len(r.Problems) > 0 {
			break
		}
	}
	p1 := readProc()
	heap1 := heapLive()
	if len(eps) == 0 {
		r.problemf("no failover episode completed")
		return r
	}

	var setups, failovers, detects, leaders []float64
	var lat, late []int64
	var window time.Duration
	var inWindow, applied int64
	for _, ep := range eps {
		setups = append(setups, ep.setup)
		failovers = append(failovers, ep.failoverMs)
		lat = append(lat, ep.latNs...)
		late = append(late, ep.lateNs...)
		window += ep.window
		inWindow += ep.inWindow
		applied += ep.applied
		r.Attempted += ep.attempted
		r.Failed += ep.failed
		if o.traced {
			detects = append(detects, ep.detectMs)
			leaders = append(leaders, ep.leaderMs)
		}
	}
	m := r.Metrics
	latMs := nsToSortedMs(lat)
	r.Info["failover_episodes"] = float64(len(eps))
	if !o.traced {
		m[mSetup] = liveSetup(setups)
		m[mOps] = float64(inWindow) / window.Seconds()
		m[mP50] = percentile(latMs, 50)
		m[mTail] = median(failovers)
		m[mRetained] = (float64(heap1) - float64(heap0)) / float64(applied)
		r.Samples[mSetup] = len(setups)
		r.Samples[mP50] = len(latMs)
		r.Samples[mTail] = len(failovers)
		sort.Float64s(failovers)
		r.Info["failover_max_ms"] = failovers[len(failovers)-1]
		runtime.KeepAlive(eps)
		return r
	}
	// Traced: every episode was traced. Counts add up over the episodes;
	// every other layer metric is the median of the episodes' readings.
	counts := map[string]bool{"cec.nacks": true, "cec.probes": true, "core.fetches": true,
		"fd.false_suspicions": true, "tcpnet.drops": true, "tcpnet.redials": true}
	perEpisode := map[string][]float64{}
	for _, ep := range eps {
		em := newReport("", 0, true)
		liveLayers(em, ep.lc, []*client{ep.client}, ep.ref, ep.from, ep.until, ep.victim)
		em.Metrics["core.applied_call_ms"] = ep.callMs
		for k, v := range em.Metrics {
			perEpisode[k] = append(perEpisode[k], v)
		}
	}
	for k, vs := range perEpisode {
		if !counts[k] {
			m[k] = median(vs)
			continue
		}
		for _, v := range vs {
			m[k] += v
		}
	}
	m["fd.detect_ms"] = median(detects)
	m["fd.leader_ms"] = median(leaders)
	m["gen.late_p99_ms"] = percentile(nsToSortedMs(late), 99)
	procLayer(m, p0, p1, inWindow)
	ref := newReport("live_failover", o.seed, false)
	refStart := time.Now()
	var refFail []float64
	for len(refFail) < len(eps) && time.Since(refStart) < budget {
		if ep := runEpisode(ref, o, time.Duration(rng.Int63n(int64(ringPeriod))), false); ep != nil {
			refFail = append(refFail, ep.failoverMs)
			r.Attempted += ep.attempted
			r.Failed += ep.failed
		}
	}
	r.Problems = append(r.Problems, ref.Problems...)
	r.Invalid = r.Invalid || ref.Invalid
	if len(refFail) > 0 {
		// The open loop pins throughput to the offered rate, so here the
		// overhead of tracing shows in the failover time instead.
		m["trace.overhead_frac"] = median(failovers)/median(refFail) - 1
		r.Info["trace.failover_ratio"] = median(failovers) / median(refFail)
	}
	transportProbes(m, o)
	return r
}
