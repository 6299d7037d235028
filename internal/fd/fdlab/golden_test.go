package fdlab_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/ec"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/sim"
	"repro/internal/trace"
)

// goldenDigests pins the behaviour of the three scalable detectors event for
// event. Each value is the SHA-256 of one seeded run's full message log
// (time, from, to, kind, payload, dropped) followed by every process's
// sampled Suspected().Members() and Trusted(), computed at the commit before
// the detectors' per-peer maps and the map-backed fd.Set were replaced by
// role-sized tables and the sorted-slice Set. A representation change must
// reproduce these runs exactly; a deliberate protocol change must say so and
// re-pin the constant it moves.
var goldenDigests = map[string]string{
	"ring":                "3e2eec5b94e1dd02dacc63c26341580a754341569163a67328916ad587b6ef0e",
	"heartbeat-additive":  "ce084818468ffb84868612d52168d1996a705bc30a32bc0455ac705f1beaa6fd",
	"heartbeat-jacobson":  "3d250999316c00fb0ef04e65074d815a9f17d6466ccad3e842776616a8e7637c",
	"transform":           "13ee4ffbd51f61c810a207b616acdcc84198bc1b655c502197e35bb4f70faa53",
	"transform-piggyback": "9f2f3b3c0c03ca9fdd7d83655424f7ff0bd85f65b2459fe74044aa563ead89c4",
}

// both joins a suspector and a leader oracle held by one process into the
// single module fdlab probes.
type both struct {
	fd.Suspector
	fd.LeaderOracle
}

// falseSuspecter is the retraction counter ring, heartbeat and transform all
// export.
type falseSuspecter interface{ FalseSuspicions() int }

func TestGoldenDetectorDigests(t *testing.T) {
	const n, goldenSeeds = 8, 3
	period := 10 * time.Millisecond
	hb := func(policy heartbeat.TimeoutPolicy) func(p dsys.Proc) (any, falseSuspecter) {
		return func(p dsys.Proc) (any, falseSuspecter) {
			d := heartbeat.Start(p, heartbeat.Options{Period: period, Policy: policy})
			return ec.FromPerfect{S: d, N: n}, d
		}
	}
	tp := func(piggyback bool) func(p dsys.Proc) (any, falseSuspecter) {
		return func(p dsys.Proc) (any, falseSuspecter) {
			lb := omega.StartLeaderBeat(p, omega.Options{Period: period})
			opt := transform.Options{Period: period}
			if piggyback {
				opt.Piggyback = lb
			}
			d := transform.Start(p, lb, opt)
			return both{d, lb}, d
		}
	}
	cases := []struct {
		name  string
		seed  int64
		build func(p dsys.Proc) (any, falseSuspecter)
	}{
		{"ring", 5101, func(p dsys.Proc) (any, falseSuspecter) {
			d := ring.Start(p, ring.Options{Period: period})
			return d, d
		}},
		{"heartbeat-additive", 5102, hb(heartbeat.PolicyAdditive)},
		{"heartbeat-jacobson", 5103, hb(heartbeat.PolicyJacobson)},
		{"transform", 5104, tp(false)},
		{"transform-piggyback", 5105, tp(true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// One digest covers goldenSeeds runs, so a rarely taken branch has
			// several schedules in which to show a divergence.
			run := func() (string, int, int) {
				all := sha256.New()
				retracted, leaders := 0, 0
				for i := int64(0); i < goldenSeeds; i++ {
					counters := make([]falseSuspecter, 0, n)
					res := fdlab.Run(fdlab.Setup{
						N:    n,
						Seed: tc.seed + 100*i,
						// Jittered and lossy throughout, wild before GST:
						// delays above the initial timeout force false
						// suspicions that later beats retract, and 4% loss
						// keeps doing so after.
						Net: network.FairLossy{P: 0.04, Under: fdlab.PartialSync(300*time.Millisecond, 35*time.Millisecond)},
						// p1 is everyone's initial leader, so its crash is
						// the leader change.
						Crashes: map[dsys.ProcessID]time.Duration{1: 600 * time.Millisecond},
						Build: func(p dsys.Proc) any {
							m, c := tc.build(p)
							counters = append(counters, c)
							return m
						},
						RunFor: 1500 * time.Millisecond,
					})
					for _, c := range counters {
						retracted += c.FalseSuspicions()
					}
					seen := map[dsys.ProcessID]bool{}
					for _, s := range res.Trace.Rec.Samples(n) {
						seen[s.Trusted] = true
					}
					leaders = max(leaders, len(seen))
					digestRun(all, res)
				}
				return hex.EncodeToString(all.Sum(nil)), retracted, leaders
			}
			digest, retracted, leaders := run()
			if retracted == 0 {
				t.Errorf("scenario retracted no false suspicion; it no longer exercises the back-off path")
			}
			if leaders < 2 {
				t.Errorf("p%d trusted %d distinct leaders; the scenario needs a leader change", n, leaders)
			}
			if want := goldenDigests[tc.name]; digest != want {
				t.Errorf("digest %s, golden %s", digest, want)
			}
		})
	}
}

// goldenLogDigests pins the replicated log — core's driver, instance runners
// and responders, cec and rbcast over a ring detector — event for event. Each
// value is the SHA-256 of one seeded run's message log, sampled detector
// outputs, every replica's applied log and the kernel's event count,
// computed while cec's Propose and core's driver still blocked on goroutines
// (with cec's pending announcements already answered in round order). Their
// step machines reproduce these runs exactly.
var goldenLogDigests = map[string]string{
	"steady":       "947b6032aebe8c5583b456bf8284fb807c4a9830c9cd356b9d5140cfa9381bff",
	"lossy":        "19a99ca72ac54f3c387d875ffd1c03a9972359982ea8d8529032a7758a85d02a",
	"leader-crash": "83e99d906d105b963f54f3d230d2453df7f3d1c02f7ccdb6fe73e256419c5002",
	"cut-off":      "01308b0aa241974b09b74f0d2a66e30b01dd009b875295791713ed3315deeae0",
}

// TestGoldenLogDigests runs an n=5 replicated log under four conditions that
// between them drive the log driver, the slot runners and the responders
// through their loss, crash and catch-up paths: (a) a fault-free steady
// stream; (b) 4% loss, so idle waits probe and retransmit; (c) the leader
// crashing mid-stream, so rounds change coordinator; (d) p5 cut off for
// longer than transferLag slots and then healed, so it catches up by state
// transfer.
func TestGoldenLogDigests(t *testing.T) {
	const n = 5
	links := network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond}}
	cases := []struct {
		name    string
		seed    int64
		net     network.Network
		crash   dsys.ProcessID
		witness func(col *trace.Collector) string
	}{
		{"steady", 5201, links, dsys.None, func(col *trace.Collector) string {
			if col.Sent(cec.KindProbe)+col.Sent(cec.KindNack) != 0 {
				return "fault-free run probed or nacked"
			}
			return ""
		}},
		{"lossy", 5210, network.FairLossy{P: 0.04, Under: links}, dsys.None, func(col *trace.Collector) string {
			if col.Sent(cec.KindProbe) == 0 {
				return "no idle wait probed"
			}
			return ""
		}},
		{"leader-crash", 5203, links, 1, func(col *trace.Collector) string {
			if col.Sent(cec.KindNack) == 0 {
				return "no round was nacked after the leader crash"
			}
			return ""
		}},
		{"cut-off", 5211, network.Partitioned{Under: links, GroupA: map[dsys.ProcessID]bool{5: true}, From: 200 * time.Millisecond, Until: 320 * time.Millisecond}, dsys.None, func(col *trace.Collector) string {
			if col.Sent(core.KindFetch) == 0 {
				return "p5 did not catch up by state transfer"
			}
			return ""
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (string, *trace.Collector, map[dsys.ProcessID]int) {
				col := trace.NewCollector()
				k := sim.New(sim.Config{N: n, Network: tc.net, Seed: tc.seed, Trace: col})
				rec := check.NewFDRecorder(n)
				reps := make(map[dsys.ProcessID]*core.Replica, n)
				for _, id := range dsys.Pids(n) {
					k.Spawn(id, "replica", func(p dsys.Proc) {
						d := ring.Start(p, ring.Options{Period: 10 * time.Millisecond})
						reps[id] = core.StartReplica(p, core.Config{Detector: d})
						rec.SetProbe(id, check.ProbeOf(d))
					})
				}
				// Every live process submits one command per millisecond for
				// 600 ms, from kernel hooks as a client would.
				seq := 0
				k.Every(20*time.Millisecond, time.Millisecond, func(now time.Duration) {
					if now >= 620*time.Millisecond {
						return
					}
					seq++
					for _, id := range dsys.Pids(n) {
						if !k.Crashed(id) {
							reps[id].Submit(fmt.Sprintf("%v-%d", id, seq))
						}
					}
				})
				if tc.crash != dsys.None {
					k.CrashAt(tc.crash, 300*time.Millisecond)
				}
				rec.Attach(k, 5*time.Millisecond, 5*time.Millisecond)
				k.Run(1500 * time.Millisecond)

				h := sha256.New()
				digestRun(h, fdlab.Result{Trace: check.FDTrace{N: n, Rec: rec}, Messages: col})
				applied := make(map[dsys.ProcessID]int, n)
				for _, id := range dsys.Pids(n) {
					log := reps[id].Applied()
					applied[id] = len(log)
					for _, e := range log {
						fmt.Fprintf(h, "%d %d %d %d %v\n", id, e.Slot, e.Cmd.Origin, e.Cmd.Seq, e.Cmd.Payload)
					}
				}
				fmt.Fprintf(h, "events %d\n", k.Events())
				return hex.EncodeToString(h.Sum(nil)), col, applied
			}
			digest, col, applied := run()
			if why := tc.witness(col); why != "" {
				t.Errorf("scenario no longer exercises its path: %s", why)
			}
			for _, id := range dsys.Pids(n) {
				if id != tc.crash && applied[id] != applied[n] {
					t.Errorf("%v applied %d commands, p%d %d", id, applied[id], n, applied[n])
				}
			}
			if want := goldenLogDigests[tc.name]; digest != want {
				t.Errorf("digest %s, golden %s", digest, want)
			}
		})
	}
}

// digestRun hashes a run's message log and sampled detector outputs into h.
func digestRun(h hash.Hash, res fdlab.Result) {
	for _, e := range res.Messages.Events() {
		fmt.Fprintf(h, "%d %d %d %s ", e.At, e.From, e.To, e.Kind)
		writePayload(h, e.Payload)
		fmt.Fprintf(h, " %t\n", e.Dropped)
	}
	for _, id := range dsys.Pids(res.Trace.N) {
		for _, s := range res.Trace.Rec.Samples(id) {
			fmt.Fprintf(h, "%d %d %v %d\n", id, s.At, s.Suspected.Members(), s.Trusted)
		}
	}
}

// writePayload renders the payload shapes the detectors and the replicated
// log send; a nil and an empty suspect list hash alike, as they encode alike
// on the wire.
func writePayload(h hash.Hash, payload any) {
	switch v := payload.(type) {
	case nil:
		fmt.Fprint(h, "-")
	case []dsys.ProcessID:
		fmt.Fprintf(h, "%v", v)
	case *omega.BeatPayload:
		fmt.Fprint(h, "beat:")
		writePayload(h, v.Attachment)
	case consensus.Msg, core.Kick, core.Fetch, core.State, rbcast.Wire:
		fmt.Fprintf(h, "%T%+v", v, v)
	default:
		panic(fmt.Sprintf("golden digest: unhashed payload type %T", payload))
	}
}
