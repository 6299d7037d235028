package fdlab_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/consensus/ctc"
	"repro/internal/consensus/mrc"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/network"
	"repro/internal/rbcast"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scheduleWitnesses counts, in a consensus run's message log, cec's nacks
// and round jumps, and the messages of any algorithm sent for a round past
// the first: a process sending its real estimate for round r > 1 without
// having sent one for round r-1 adopted a later round's coordinator from a
// pending announcement.
func scheduleWitnesses(msgs []trace.MsgEvent) (nacks, jumps, late int) {
	estimated := map[dsys.ProcessID]map[int]bool{}
	for _, e := range msgs {
		env, ok := e.Payload.(consensus.Msg)
		if ok && env.Round > 1 {
			late++
		}
		switch {
		case !ok:
		case e.Kind == cec.KindNack:
			nacks++
		case e.Kind == cec.KindEst && !env.Null:
			if estimated[e.From] == nil {
				estimated[e.From] = map[int]bool{}
			}
			estimated[e.From][env.Round] = true
		}
	}
	for _, rounds := range estimated {
		for r := range rounds {
			if r > 1 && !rounds[r-1] {
				jumps++
			}
		}
	}
	return nacks, jumps, late
}

// pinnedDigests holds each scenario's scenarioDigest, recorded while the
// simulator still had its blocking execution path and both schemes produced
// these runs message for message (see TestCallbackGoroutineDifferential).
var pinnedDigests = map[string]string{
	"heartbeat":           "13880383b4173d959cb6793a42dd29ee0dd82a231611b49234f97a30c1bb65d2",
	"ring":                "5920ab993e1a41e1f5556a30bae08a128c3f5c866fef70187cc64b2aceceefba",
	"neighbor":            "6987e6753c5dfcaaad00332842ac25a6747e451707f0c51b2a4b4f8b505222b4",
	"amplify":             "d4f7b533dbf5a0943b54f35c204bf4844bcce1919daa8d967c65d2a6236e0e23",
	"omega-leaderbeat":    "d614b98d78872a5ac5617a706bd40fd9fc13e6f453a851cad6785d8954e9df20",
	"omega-stable":        "7e7c08d4cd64f5169d8869aa67b8f9ec98764d26538978cf731e7cca06132211",
	"omega-fromsuspector": "d212c2d81f140325f9fbf9c6a1d7d5a93b478a50b6721fe78b4d5d66e896e4ec",
	"from-perfect":        "7111921b180e7070743dc23f3b3ba9b648ac4c58e8e5ed482e6dac22aae7369b",
	"from-leader":         "4b9b595db74cc3ac397cf0a03a5ae73987930c9f89237b284ddd28b5e25927f9",
	"weak-route":          "fc482cb76ee744b9437ca4924288f68b2a12538e50e9556aa5144e9bed73a0f8",
	"transform":           "db100c5304f61c7c25bd58a8013b2517e9e8091cf0e29ade9453329877b76bad",
	"transform-scripted":  "dccec5b2e0d5acd17159a2d6621431f15531c845ad8daa2084d8cb8b03a09f45",
	"piggyback":           "9599492826072b11b8107e0c7c24d4c8cee6a34c732ecc2a64803cbca66e3bce",
	"cec":                 "924f1338b3b815c0fd9d32770fc8d6cedb09d653473ef0fd009019ac63416015",
	"cec-merged":          "89bd91d97a58b86f2f1e131474451176fc4ca5c1d6647e7b54886354464a2d57",
	"cec-cutoff":          "75198e4950e6b36d24988e07474c84f8f35b62e06a140687a2889f09f91fe371",
	"ctc":                 "0184a10cbe0255e8b322e64289ef9e537f120a5569ad218dfda12edfb4ae885c",
	"mrc":                 "2d9fbeaf19b22ecc37f4c51078071a337e6efc52e66b180b6e5a29bf1d3d218a",
	"replicated-log":      "9db8a401ed17fe2ab7e633ab730334429890ad3938e5545a80631be607626d22",
}

// checkPinned fails the test unless digest is the scenario's pinned one.
func checkPinned(t *testing.T, name, digest string) {
	t.Helper()
	if want := pinnedDigests[name]; digest != want {
		t.Errorf("digest %s, pinned %s", digest, want)
	}
}

// scenarioDigest is the SHA-256 of a run's event count, its message log and
// the run's outcomes, each printed with %+v.
func scenarioDigest(events uint64, msgs []trace.MsgEvent, outcomes ...any) string {
	h := sha256.New()
	fmt.Fprintf(h, "events %d\n", events)
	for _, e := range msgs {
		fmt.Fprintf(h, "%d %d %d %s %s %t\n", e.At, e.From, e.To, e.Kind, payloadText(e.Payload), e.Dropped)
	}
	for _, o := range outcomes {
		fmt.Fprintf(h, "%+v\n", o)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// payloadText renders a message payload: its type and its fields, through
// the one pointer payload the detectors send.
func payloadText(v any) string {
	if b, ok := v.(*omega.BeatPayload); ok {
		return "beat:" + payloadText(b.Attachment)
	}
	return fmt.Sprintf("%T%+v", v, v)
}

// TestCallbackGoroutineDifferential holds the simulator's one execution
// scheme — step tasks run as callbacks on the dispatch loop — to the runs
// its retired twin produced. Until the simulator's blocking path was
// deleted, every scenario below ran twice, once as callbacks and once with
// every step task on its own goroutine through its blocking expansion
// dsys.RunSteps, and the two had to agree event for event; the digests in
// pinnedDigests are those shared runs. The experiment tables are a function
// of the sampled detector outputs and the message log, so a digest that
// still matches keeps every table byte-identical. dsys.TestRunStepsExpansion
// now holds RunSteps to the Wait semantics, and
// live.TestDispatchMatchesSimulator holds the live runtime's dispatch to the
// simulator's.
//
// The detector half runs every stack of fdlab's catalog, piggybacked lists
// riding LeaderBeat and the ◇C compositions included. The setups cover each
// task shape the modules use: immediate and sleep-first tick loops, single-
// and multi-kind receive loops, the Setup-hook spawn (transform's Task 4
// inside Task 3's loop), and step tasks waiting on kind and predicate
// matchers with and without timeouts (the consensus instances and cec's
// responders, core's driver), under partial synchrony or flapping detectors
// chosen to force false suspicions, retractions, list adoptions, nacks and
// round jumps — the paths where a divergence in scheduling order would
// surface.
func TestCallbackGoroutineDifferential(t *testing.T) {
	period := 10 * time.Millisecond
	// One seed per catalog stack; the eight stacks older than the catalog
	// keep the seeds they ran under.
	seeds := map[string]int64{
		"heartbeat": 4201, "ring": 4202, "transform-scripted": 4203, "leaderbeat": 4204,
		"stable": 4205, "gossip": 4206, "neighbor": 4207, "amplified-neighbor": 4208,
		"piggyback": 4209, "transform": 4210, "from-perfect": 4211, "from-leader": 4212, "weak-route": 4213,
	}
	for _, st := range fdlab.Stacks() {
		t.Run(subtest(st.Name), func(t *testing.T) {
			res := fdlab.Run(fdlab.Setup{
				N:    8,
				Seed: seeds[st.Name],
				// GST after several periods with Δ above the initial
				// timeout: pre-GST delays cause false suspicions and
				// retractions before the run settles.
				Net:     fdlab.PartialSync(300*time.Millisecond, 35*time.Millisecond),
				Crashes: map[dsys.ProcessID]time.Duration{3: 600 * time.Millisecond},
				Build:   st.Build(period),
				RunFor:  1200 * time.Millisecond,
			})
			samples := make([][]check.FDSample, 0, 8)
			for _, id := range dsys.Pids(8) {
				samples = append(samples, res.Trace.Rec.Samples(id))
			}
			checkPinned(t, subtest(st.Name), scenarioDigest(res.Events, res.Messages.Events(), res.End, samples))
		})
	}

	// Standalone consensus instances: each process's Proposal is a step
	// task, and cec's responder another. Until GST every detector module is
	// re-randomised every few milliseconds — random trusted process, random
	// suspects — so coordinators compete, rounds abort with nacks and
	// participants jump rounds through pending announcements; after GST all
	// trust p1 and one round gets through.
	cecProposal := func(d *fdtest.Scripted, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal {
		return cec.NewProposal(d, rb, v, opt)
	}
	for _, tc := range []struct {
		name        string
		seed        int64
		opt         consensus.Options
		newProposal func(d *fdtest.Scripted, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal
	}{
		{"cec", 4415, consensus.Options{}, cecProposal},
		{"cec-merged", 4421, consensus.Options{MergedPhase01: true}, cecProposal},
		{"cec-cutoff", 4434, consensus.Options{FirstMajorityCutoff: true}, cecProposal},
		{"ctc", 4441, consensus.Options{}, func(d *fdtest.Scripted, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal {
			return ctc.NewProposal(d, rb, v, opt)
		}},
		{"mrc", 4452, consensus.Options{}, func(d *fdtest.Scripted, rb *rbcast.Module, v any, opt consensus.Options) consensus.Proposal {
			return mrc.NewProposal(d, rb, v, opt)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 5
			const gst = 150 * time.Millisecond
			col := trace.NewCollector()
			net := network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 12 * time.Millisecond}}
			k := sim.New(sim.Config{N: n, Network: net, Seed: tc.seed, Trace: col})
			dets := fdtest.NewCluster(n, 1)
			props := make(map[dsys.ProcessID]consensus.Proposal, n)
			for _, id := range dsys.Pids(n) {
				k.Spawn(id, "consensus", func(p dsys.Proc) {
					props[id] = tc.newProposal(dets.At(id), rbcast.Start(p), fmt.Sprintf("v%v", id), tc.opt)
					dsys.SpawnStep(p, tc.name, props[id].Step)
				})
			}
			rng := rand.New(rand.NewSource(tc.seed))
			k.Every(5*time.Millisecond, 5*time.Millisecond, func(now time.Duration) {
				for _, id := range dsys.Pids(n) {
					var trusted dsys.ProcessID = 1
					var susp []dsys.ProcessID
					if now < gst {
						trusted = dsys.ProcessID(rng.Intn(n) + 1)
						for _, q := range dsys.Pids(n) {
							if rng.Intn(3) == 0 {
								susp = append(susp, q)
							}
						}
					}
					dets.At(id).SetTrusted(trusted)
					dets.At(id).SetSuspected(susp...)
				}
			})
			k.Run(time.Second)
			decided := map[dsys.ProcessID]consensus.Result{}
			for _, id := range dsys.Pids(n) {
				if d, ok := props[id].Result(); ok {
					decided[id] = d
				}
			}
			if len(decided) != n {
				t.Errorf("%d of %d processes decided", len(decided), n)
			}
			msgs := col.Events()
			nacks, jumps, late := scheduleWitnesses(msgs)
			if late == 0 {
				t.Error("every process decided in round 1; the detector does not flap enough")
			}
			if strings.HasPrefix(tc.name, "cec") {
				if nacks == 0 {
					t.Error("no round was nacked; the detector does not flap enough")
				}
				if jumps == 0 && !tc.opt.MergedPhase01 {
					t.Error("no process jumped a round through a pending announcement")
				}
			}
			checkPinned(t, tc.name, scenarioDigest(k.Events(), msgs, decided))
		})
	}

	// The replicated log: core's log driver, instance runners and shared
	// responder are step tasks, its state server and the rbcast relay
	// receive loops, and they share one ring detector — so every kind of
	// callback task interleaves on every step of a leader crash and
	// hand-over.
	t.Run("replicated-log", func(t *testing.T) {
		const n = 5
		col := trace.NewCollector()
		k := sim.New(sim.Config{N: n, Network: fdlab.PartialSync(100*time.Millisecond, 5*time.Millisecond), Seed: 4301, Trace: col})
		reps := make(map[dsys.ProcessID]*core.Replica, n)
		for _, id := range dsys.Pids(n) {
			k.Spawn(id, "replica", func(p dsys.Proc) {
				det := ring.Start(p, ring.Options{Period: period})
				reps[id] = core.StartReplica(p, core.Config{Detector: det})
			})
		}
		// A steady stream from every process across the crash of p1,
		// everyone's initial leader.
		for i := range 60 {
			k.ScheduleFunc(time.Duration(20+5*i)*time.Millisecond, func(time.Duration) {
				for _, id := range dsys.Pids(n) {
					reps[id].Submit(fmt.Sprintf("%v-%d", id, i))
				}
			})
		}
		k.CrashAt(1, 150*time.Millisecond)
		k.Run(3 * time.Second)
		applied := map[dsys.ProcessID][]any{}
		for _, id := range dsys.Pids(n) {
			applied[id] = reps[id].AppliedValues()
		}
		if got := len(applied[2]); got < 60*(n-1) {
			t.Errorf("p2 applied only %d commands; the run does not exercise the log", got)
		}
		checkPinned(t, "replicated-log", scenarioDigest(k.Events(), col.Events(), applied))
	})
}
