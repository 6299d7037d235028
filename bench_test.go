// Package repro's top-level benchmarks regenerate every experiment of
// EXPERIMENTS.md (one benchmark per table/figure-level claim of the paper)
// and fail if the paper's qualitative shape does not reproduce. Run with:
//
//	go test -bench=. -benchmem
//
// Each iteration executes the full experiment in quick mode on the
// deterministic simulator; reported custom metrics summarize the headline
// numbers (see EXPERIMENTS.md for the full tables, or run cmd/ecrepro).
package repro

import (
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/consensus/conslab"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/expt"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/sim"
	"repro/internal/tcpnet"
	"repro/internal/trace"
)

// runExperiment executes one experiment per iteration and fails the
// benchmark on a shape mismatch. The returned table of the last iteration is
// available for metric extraction.
func runExperiment(b *testing.B, fn func(bool) (*expt.Table, error)) *expt.Table {
	b.Helper()
	var last *expt.Table
	for i := 0; i < b.N; i++ {
		tb, err := fn(true)
		if err != nil {
			b.Fatal(err)
		}
		tb.Fprint(io.Discard)
		last = tb
	}
	return last
}

func BenchmarkE1ClassProperties(b *testing.B) {
	runExperiment(b, expt.E1ClassProperties)
}

func BenchmarkE2TransformCorrectness(b *testing.B) {
	runExperiment(b, expt.E2TransformCorrectness)
}

func BenchmarkE3MessagesPerPeriod(b *testing.B) {
	tb := runExperiment(b, expt.E3MessagesPerPeriod)
	// Headline: transformation msgs/period at the largest n vs CT ◇P.
	last := tb.Rows[len(tb.Rows)-1]
	if v, err := strconv.ParseFloat(last[5], 64); err == nil {
		b.ReportMetric(v, "transform-msgs/period")
	}
	if v, err := strconv.ParseFloat(last[1], 64); err == nil {
		b.ReportMetric(v, "ctP-msgs/period")
	}
}

func BenchmarkE4DetectionLatency(b *testing.B) {
	runExperiment(b, expt.E4DetectionLatency)
}

func BenchmarkE5RoundCosts(b *testing.B) {
	runExperiment(b, expt.E5RoundCosts)
}

func BenchmarkE6RoundsAfterStability(b *testing.B) {
	tb := runExperiment(b, expt.E6RoundsAfterStability)
	for _, row := range tb.Rows {
		if row[1] == "CT ◇S (rotating)" {
			if v, err := strconv.ParseFloat(row[4], 64); err == nil {
				b.ReportMetric(v, "ct-worst-rounds-after-stab")
			}
		}
		if row[1] == "◇C (this paper)" {
			if v, err := strconv.ParseFloat(row[4], 64); err == nil {
				b.ReportMetric(v, "ec-worst-rounds-after-stab")
			}
		}
	}
}

func BenchmarkE7NackTolerance(b *testing.B) {
	runExperiment(b, expt.E7NackTolerance)
}

func BenchmarkE8MergedPhaseTradeoff(b *testing.B) {
	runExperiment(b, expt.E8MergedPhaseTradeoff)
}

func BenchmarkE9AllSelfTrust(b *testing.B) {
	runExperiment(b, expt.E9AllSelfTrust)
}

func BenchmarkE10ConsensusSoak(b *testing.B) {
	runExperiment(b, expt.E10ConsensusSoak)
}

func BenchmarkE11StabilityWindow(b *testing.B) {
	runExperiment(b, expt.E11StabilityWindow)
}

func BenchmarkE12DetectorQoS(b *testing.B) {
	runExperiment(b, expt.E12DetectorQoS)
}

func BenchmarkE13MeshChaos(b *testing.B) {
	runExperiment(b, expt.E13MeshChaos)
}

func BenchmarkE14ScalingSweep(b *testing.B) {
	tb := runExperiment(b, expt.E14ScalingSweep)
	// Headline: msgs/period at the largest n each variant reached — Θ(n²)
	// for CT ◇P (capped at n=256) versus Θ(n) for the transformation (runs
	// through n=4096). Rows are grouped per n; not every variant runs at
	// every n, so pick each variant's last row by name.
	report := func(substr, metric string) {
		for i := len(tb.Rows) - 1; i >= 0; i-- {
			if strings.Contains(tb.Rows[i][1], substr) {
				if v, err := strconv.ParseFloat(tb.Rows[i][2], 64); err == nil {
					b.ReportMetric(v, metric)
				}
				return
			}
		}
	}
	report("heartbeat", "ctP-msgs/period-max-n")
	report("transform", "transform-msgs/period-max-n")
}

// --- Ablation benchmarks (DESIGN.md "key design decisions") ---

// BenchmarkAblationAdaptiveTimeout compares false-suspicion counts of the
// heartbeat detector with adaptive vs fixed timeouts under Δ above the
// initial timeout: adaptivity is what delivers eventual accuracy.
func BenchmarkAblationAdaptiveTimeout(b *testing.B) {
	run := func(fixed bool) int {
		col := trace.NewCollector()
		k := sim.New(sim.Config{
			N:       4,
			Network: network.PartiallySynchronous{GST: 0, Delta: 80 * time.Millisecond},
			Seed:    1,
			Trace:   col,
		})
		total := 0
		for _, id := range dsys.Pids(4) {
			k.Spawn(id, "fd", func(p dsys.Proc) {
				d := heartbeat.Start(p, heartbeat.Options{
					Period:         10 * time.Millisecond,
					InitialTimeout: 25 * time.Millisecond,
					FixedTimeout:   fixed,
				})
				p.Spawn("tally", func(p dsys.Proc) {
					p.Sleep(4 * time.Second)
					total += d.FalseSuspicions()
				})
			})
		}
		k.Run(4*time.Second + time.Millisecond)
		return total
	}
	var adaptive, fixed int
	for i := 0; i < b.N; i++ {
		adaptive, fixed = run(false), run(true)
		if adaptive >= fixed {
			b.Fatalf("adaptive timeouts made %d false suspicions, fixed made %d — adaptivity shows no benefit", adaptive, fixed)
		}
	}
	b.ReportMetric(float64(adaptive), "false-susp-adaptive")
	b.ReportMetric(float64(fixed), "false-susp-fixed")
}

// BenchmarkAblationWaitBeyondMajority compares the paper's Phase 2/4 wait
// rule against the Chandra–Toueg first-majority cutoff in the E7 scenario
// (two permanent false suspectors of the leader): the paper's rule decides
// in round 1, the cutoff loses the run entirely.
func BenchmarkAblationWaitBeyondMajority(b *testing.B) {
	run := func(cutoff bool) (decided int, rounds int) {
		c := fdtest.NewCluster(5, 1)
		c.At(4).Suspect(1)
		c.At(5).Suspect(1)
		res := conslab.Run(conslab.Setup{
			N:    5,
			Seed: 1,
			Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
				return cec.Propose(p, c.At(p.ID()), rb, v, opt)
			},
			Opt:    consensus.Options{FirstMajorityCutoff: cutoff},
			RunFor: time.Second,
		})
		return res.Log.DecidedCount(), res.Log.MaxRound()
	}
	for i := 0; i < b.N; i++ {
		decided, rounds := run(false)
		if decided != 5 || rounds != 1 {
			b.Fatalf("paper's wait rule: decided=%d rounds=%d, want full decision in round 1", decided, rounds)
		}
	}
}

// BenchmarkAblationStableLeader compares leader changes of the stable Ω
// module against plain LeaderBeat when the leader's outgoing links flap
// periodically: stability (Aguilera et al., cited in the paper's related
// work) demotes once and stays, while plain LeaderBeat flaps back on every
// heal.
func BenchmarkAblationStableLeader(b *testing.B) {
	flaky := network.Func(func(from, to dsys.ProcessID, kind string, now time.Duration, rng *rand.Rand) (time.Duration, bool) {
		if from == 1 && now%(500*time.Millisecond) < 150*time.Millisecond {
			return 0, true
		}
		return network.PartiallySynchronous{GST: 0, Delta: 5 * time.Millisecond}.Plan(from, to, kind, now, rng)
	})
	changes := func(stable bool) int {
		res := fdlab.Run(fdlab.Setup{
			N:    5,
			Seed: 14,
			Net:  flaky,
			Build: func(p dsys.Proc) any {
				if stable {
					return omega.StartStable(p, omega.Options{})
				}
				return omega.StartLeaderBeat(p, omega.Options{})
			},
			RunFor: 5 * time.Second,
		})
		total := 0
		for _, m := range res.Modules {
			switch d := m.(type) {
			case *omega.Stable:
				total += d.LeaderChanges()
			case *omega.LeaderBeat:
				total += d.LeaderChanges()
			}
		}
		return total
	}
	var st, plain int
	for i := 0; i < b.N; i++ {
		st, plain = changes(true), changes(false)
		if st >= plain {
			b.Fatalf("stable Ω made %d changes vs plain %d — no stability benefit", st, plain)
		}
	}
	b.ReportMetric(float64(st), "changes-stable")
	b.ReportMetric(float64(plain), "changes-plain")
}

// --- Kernel fast-path benchmarks ---

// benchKernelEvents runs a kernel workload b.N times and reports the two
// numbers the typed-event fast path (internal/sim/heap.go) optimizes:
// simulator events per wall-clock second, and heap allocations per event.
// The workloads are deterministic, so allocs/event is directly comparable
// across revisions.
func benchKernelEvents(b *testing.B, build func() *sim.Kernel, runFor time.Duration) {
	b.Helper()
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	var events uint64
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		k := build()
		k.Run(runFor)
		events += k.Events()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if events > 0 {
		b.ReportMetric(float64(events)/wall.Seconds(), "events/s")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(events), "allocs/event")
	}
}

// BenchmarkKernelSendThroughput floods the per-send path on the callback
// fast path: 8 processes forward tokens around a ring from receive-loop
// callbacks, so nearly every simulator event is a message delivery executed
// without a goroutine handoff — arena slot out, callback, arena slot back.
// This is the deliver/park cycle every detector's receive task runs on.
func BenchmarkKernelSendThroughput(b *testing.B) {
	const n = 8
	benchKernelEvents(b, func() *sim.Kernel {
		k := sim.New(sim.Config{
			N:       n,
			Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Seed:    1,
		})
		for _, id := range dsys.Pids(n) {
			next := dsys.ProcessID(int(id)%n + 1)
			k.SpawnRecvLoop(id, "flood", func(p dsys.Proc, m *dsys.Message) {
				p.Send(next, "ping", nil)
			}, "ping")
			// One token per process, as in the goroutine variant: n tokens
			// circulate the ring concurrently.
			k.Spawn(id, "seed", func(p dsys.Proc) { p.Send(next, "ping", nil) })
		}
		return k
	}, 2*time.Second)
}

// BenchmarkKernelSendThroughputGoroutine is the same flood on the blocking
// goroutine path (the pre-PR-10 execution scheme, still used by tasks that
// genuinely block): each delivery crosses a channel handoff between the
// kernel goroutine and the task goroutine, and each received message is
// copied out of the arena.
func BenchmarkKernelSendThroughputGoroutine(b *testing.B) {
	const n = 8
	benchKernelEvents(b, func() *sim.Kernel {
		k := sim.New(sim.Config{
			N:       n,
			Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Seed:    1,
		})
		for _, id := range dsys.Pids(n) {
			k.Spawn(id, "flood", func(p dsys.Proc) {
				next := dsys.ProcessID(int(p.ID())%n + 1)
				for i := 0; ; i++ {
					p.Send(next, "ping", i)
					p.Recv(dsys.MatchKind("ping"))
				}
			})
		}
		return k
	}, 2*time.Second)
}

// BenchmarkKernelScaleEvents measures the kernel at E14's population sizes:
// n processes run a ring-heartbeat-shaped workload — a 10ms tick loop
// sending a beat to the ring successor, consumed by a receive-loop
// callback — so events split between timer fires and message deliveries
// exactly like a large-n detector sweep. The per-size events/s and
// allocs/event are the n = 256/1024/4096 scaling rows of BENCH_PR10.json
// (allocs/event is higher than the steady-state kernel benchmarks at
// -benchtime=1x because one kernel's setup is amortized over a short run;
// it is deterministic and comparable across revisions all the same).
func BenchmarkKernelScaleEvents(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			benchKernelEvents(b, func() *sim.Kernel {
				k := sim.New(sim.Config{
					N:       n,
					Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
					Seed:    14,
				})
				for _, id := range dsys.Pids(n) {
					next := dsys.ProcessID(int(id)%n + 1)
					k.SpawnTickLoop(id, "beat", dsys.TickLoop{
						Period:    10 * time.Millisecond,
						Immediate: true,
						Fn:        func(p dsys.Proc) { p.Send(next, "beat", nil) },
					})
					k.SpawnRecvLoop(id, "sink", func(p dsys.Proc, m *dsys.Message) {}, "beat")
				}
				return k
			}, 500*time.Millisecond)
		})
	}
}

// BenchmarkKernelTimerThroughput floods the per-timer path on the callback
// fast path: every event is a tick-loop fire — wheel pop, callback, wheel
// push — with no goroutine handoff and no allocation. This is the cycle
// every detector's periodic send/check task runs on.
func BenchmarkKernelTimerThroughput(b *testing.B) {
	const n = 4
	benchKernelEvents(b, func() *sim.Kernel {
		k := sim.New(sim.Config{
			N:       n,
			Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Seed:    1,
		})
		for _, id := range dsys.Pids(n) {
			for i := 0; i < 2; i++ {
				k.SpawnTickLoop(id, "tick", dsys.TickLoop{
					Period: time.Millisecond,
					Fn:     func(p dsys.Proc) {},
				})
			}
		}
		return k
	}, 2*time.Second)
}

// BenchmarkKernelTimerThroughputGoroutine is the same timer flood on the
// blocking goroutine path: every Sleep and RecvTimeout expiry resumes a
// parked goroutine through a channel handoff.
func BenchmarkKernelTimerThroughputGoroutine(b *testing.B) {
	const n = 4
	benchKernelEvents(b, func() *sim.Kernel {
		k := sim.New(sim.Config{
			N:       n,
			Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Seed:    1,
		})
		for _, id := range dsys.Pids(n) {
			k.Spawn(id, "timers", func(p dsys.Proc) {
				for {
					p.Sleep(time.Millisecond)
					p.RecvTimeout(dsys.MatchKind("never"), time.Millisecond)
				}
			})
		}
		return k
	}, 2*time.Second)
}

// --- Live transport fast-path benchmarks ---

// benchMesh floods a live loopback mesh with an all-pairs burst per iteration
// and reports sustained delivery throughput, heap allocations per message and
// wire bytes per frame — the three numbers the PR-5 fast path (binary codec,
// batched writes, lock-free send path) optimizes. The frames are
// heartbeat-shaped (nil payload), matching the n² detector traffic that
// dominates every live run; the receive matcher is hoisted so the harness
// itself adds no per-message allocations, leaving only the transport +
// delivery path in allocs/msg.
func benchMesh(b *testing.B) {
	const n, perPair = 4, 2000
	col := &trace.Collector{}
	m, err := tcpnet.New(tcpnet.Config{N: n, Trace: col, QueueLen: 4 * perPair})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Stop()
	pids := dsys.Pids(n)
	match := dsys.MatchKind("flood")
	var payload any
	for _, id := range pids {
		m.Spawn(id, "drain", func(p dsys.Proc) {
			for {
				p.Recv(match)
			}
		})
	}
	burst := func(task string, count int) {
		var wg sync.WaitGroup
		for _, id := range pids {
			wg.Add(1)
			m.Spawn(id, task, func(p dsys.Proc) {
				defer wg.Done()
				for i := 0; i < count; i++ {
					for _, to := range pids {
						if to != p.ID() {
							p.Send(to, "flood", payload)
						}
					}
				}
			})
		}
		wg.Wait()
	}
	waitDelivered := func(target int) {
		deadline := time.Now().Add(time.Minute)
		for col.Delivered("flood") < target && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if col.Delivered("flood") < target {
			b.Fatalf("flood stalled at %d of %d deliveries", col.Delivered("flood"), target)
		}
	}
	// Warm-up establishes every connection outside the measured window.
	burst("warm", 1)
	waitDelivered(n * (n - 1))

	perIter := n * (n - 1) * perPair
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	f0, b0bytes := m.WireStats()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		burst("flood"+strconv.Itoa(i), perPair)
		waitDelivered(n*(n-1) + (i+1)*perIter)
	}
	wall := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	f1, b1bytes := m.WireStats()
	total := b.N * perIter
	b.ReportMetric(float64(total)/wall.Seconds(), "msgs/s")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(total), "allocs/msg")
	if f1 > f0 {
		b.ReportMetric(float64(b1bytes-b0bytes)/float64(f1-f0), "B/frame")
	}
}

// BenchmarkMeshThroughput measures the binary wire codec + batched writer on
// the mesh flood. The cell keeps the name BENCH_PR5.json records it under,
// next to the ratios against the deleted per-frame gob codec.
func BenchmarkMeshThroughput(b *testing.B) {
	b.Run("wire", benchMesh)
}

// BenchmarkE15LiveThroughput regenerates the E15 table (quick mode) like the
// other experiment benchmarks.
func BenchmarkE15LiveThroughput(b *testing.B) {
	runExperiment(b, expt.E15LiveThroughput)
}

// BenchmarkE16ClusterKillRestart regenerates the E16 table (quick mode: n=3
// real ecnode processes, one follower SIGKILL + restart under client load).
func BenchmarkE16ClusterKillRestart(b *testing.B) {
	runExperiment(b, expt.E16ClusterKillRestart)
}

// BenchmarkE17PipelineThroughput regenerates the E17 table (quick mode:
// batch × pipeline sim cells plus live baseline/tuned/leader-kill runs).
func BenchmarkE17PipelineThroughput(b *testing.B) {
	runExperiment(b, expt.E17PipelineThroughput)
}

// BenchmarkE18ScenarioMatrix regenerates the E18 table (quick mode: the
// gated sim scenario slice × 3 detectors, both live UDP rows, and the
// mixed-transport ecnode kill/restart phase).
func BenchmarkE18ScenarioMatrix(b *testing.B) {
	runExperiment(b, expt.E18ScenarioMatrix)
}

// BenchmarkRingDetectorSteadyState measures simulator throughput on the ring
// detector's steady state — a substrate-level performance benchmark.
func BenchmarkRingDetectorSteadyState(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.New(sim.Config{
			N:       16,
			Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Seed:    1,
		})
		for _, id := range dsys.Pids(16) {
			k.Spawn(id, "fd", func(p dsys.Proc) { ring.Start(p, ring.Options{}) })
		}
		k.Run(time.Second)
	}
}

// BenchmarkReplicatedLogThroughput measures how many fully replicated
// commands per wall-clock second the stack sustains in simulation (5
// replicas, ring detector). The unbatched cell pins one command per slot and
// a sequential window — one ◇C consensus instance per command — while the
// batched cell uses the core defaults (MaxBatch 64, Pipeline 4), amortizing
// the consensus round over a whole batch.
func BenchmarkReplicatedLogThroughput(b *testing.B) {
	bench := func(maxBatch, pipeline, perReplica int) func(*testing.B) {
		return func(b *testing.B) {
			n := 5
			cmdsTotal := 0
			start := time.Now()
			for i := 0; i < b.N; i++ {
				k := sim.New(sim.Config{
					N:       n,
					Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
					Seed:    int64(i),
				})
				reps := make(map[dsys.ProcessID]*core.Replica, n)
				for _, id := range dsys.Pids(n) {
					id := id
					k.Spawn(id, "replica", func(p dsys.Proc) {
						reps[id] = core.StartReplica(p, core.Config{MaxBatch: maxBatch, Pipeline: pipeline})
					})
				}
				k.ScheduleFunc(5*time.Millisecond, func(time.Duration) {
					for _, id := range dsys.Pids(n) {
						for j := 0; j < perReplica; j++ {
							reps[id].Submit(j)
						}
					}
				})
				k.Run(5 * time.Second)
				applied := len(reps[1].AppliedValues())
				if applied != n*perReplica {
					b.Fatalf("replica applied %d of %d commands", applied, n*perReplica)
				}
				cmdsTotal += applied
			}
			b.ReportMetric(float64(cmdsTotal)/time.Since(start).Seconds(), "cmds/s")
		}
	}
	b.Run("unbatched", bench(1, 1, 8))
	b.Run("batched", bench(0, 0, 64))
}

// BenchmarkConsensusDecisionLatency measures end-to-end virtual decision
// latency of the ◇C algorithm over the real ring detector.
func BenchmarkConsensusDecisionLatency(b *testing.B) {
	var lastAt time.Duration
	for i := 0; i < b.N; i++ {
		res := conslab.Run(conslab.Setup{
			N:    5,
			Seed: int64(i),
			Net:  network.PartiallySynchronous{GST: 0, Delta: 5 * time.Millisecond},
			Run: func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
				return cec.Propose(p, ring.Start(p, ring.Options{}), rb, v, opt)
			},
		})
		if err := res.Verify(5); err != nil {
			b.Fatal(err)
		}
		lastAt = res.Log.LastDecisionAt()
	}
	b.ReportMetric(float64(lastAt)/1e6, "virtual-decision-ms")
}
