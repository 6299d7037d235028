package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/consensus/cec"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
	"repro/internal/trace"
)

// partitionedScenario runs the canonical catch-up situation: p3 is cut off
// from {p1, p2} while p1 decides nSlots commands, the partition heals, the
// survivors stop suspecting p3, and one more command triggers p3 into
// noticing the frontier. wrapNet, if not nil, wraps the partitioned network.
// It returns the replicas and the trace collector so tests can assert on how
// the catch-up happened.
func partitionedScenario(t *testing.T, nSlots int, cfgTweak func(*core.Config), wrapNet func(network.Network) network.Network) (map[dsys.ProcessID]*core.Replica, *trace.Collector) {
	t.Helper()
	const heal = 600 * time.Millisecond
	var net network.Network = network.Partitioned{
		Under:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
		GroupA: map[dsys.ProcessID]bool{3: true},
		From:   0,
		Until:  heal,
	}
	if wrapNet != nil {
		net = wrapNet(net)
	}
	// Scripted detectors so the consensus wait rule skips the partitioned
	// p3 (with the default ring detector a fully partitioned process is
	// never reintegrated without a restart; E16 covers that path live).
	dets := map[dsys.ProcessID]*fdtest.Scripted{
		1: fdtest.NewScripted(1, 3),
		2: fdtest.NewScripted(1, 3),
		3: fdtest.NewScripted(1),
	}
	k, reps, col := cluster(3, 11, net, func(id dsys.ProcessID) core.Config {
		// Batching/pipelining off so the 40 submits become 40 distinct slots
		// and the chunk/probe counts below stay meaningful; the pipelined
		// variants of this scenario are covered separately.
		cfg := core.Config{Detector: dets[id], TransferChunk: 8, TransferTimeout: 30 * time.Millisecond,
			MaxBatch: 1, Pipeline: 1}
		if cfgTweak != nil {
			cfgTweak(&cfg)
		}
		return cfg
	})
	k.ScheduleFunc(20*time.Millisecond, func(time.Duration) {
		for i := 0; i < nSlots; i++ {
			reps[1].Submit(fmt.Sprintf("cmd-%d", i))
		}
	})
	k.ScheduleFunc(heal+200*time.Millisecond, func(time.Duration) {
		dets[1].Unsuspect(3)
		dets[2].Unsuspect(3)
		reps[1].Submit("post-heal")
	})
	k.Run(2 * time.Second)
	return reps, col
}

// TestStateTransferCatchesUpPartitionedReplica: a replica that missed a long
// decided range catches up through chunked core.fetch/core.state round trips
// — several chunks for 40 slots at chunk size 8 — instead of replaying one
// consensus probe per slot.
func TestStateTransferCatchesUpPartitionedReplica(t *testing.T) {
	reps, col := partitionedScenario(t, 40, nil, nil)
	assertSameLogs(t, reps, dsys.Pids(3), 41)
	if got := col.Sent(core.KindFetch); got < 5 {
		t.Errorf("sent %d fetches, want >= 5 (40 slots, chunk 8)", got)
	}
	if got := col.Sent(core.KindState); got < 5 {
		t.Errorf("sent %d state chunks, want >= 5", got)
	}
	// The replayed slots must not have gone through per-slot catch-up
	// probes; a handful of probes from frontier races is fine, one per
	// missed slot is the regression.
	if probes := col.Sent(cec.KindProbe); probes > 10 {
		t.Errorf("sent %d cec probes, want the batch path (few probes)", probes)
	}
}

// TestStalledTransferFallsBackToSlotReplay: when no donor ever answers, the
// transfer times out on each of them and is recorded as stalled, so the
// driver does not retry it, and the replica still converges the old way —
// per-slot consensus probes.
func TestStalledTransferFallsBackToSlotReplay(t *testing.T) {
	dropFetches := func(under network.Network) network.Network {
		return network.Func(func(from, to dsys.ProcessID, kind string, now time.Duration, rng *rand.Rand) (time.Duration, bool) {
			if kind == core.KindFetch {
				return 0, true
			}
			return under.Plan(from, to, kind, now, rng)
		})
	}
	reps, col := partitionedScenario(t, 40, nil, dropFetches)
	assertSameLogs(t, reps, dsys.Pids(3), 41)
	if got := col.Sent(core.KindFetch); got == 0 {
		t.Error("sent no fetch: the transfer never started")
	}
	if got := col.Sent(core.KindState); got != 0 {
		t.Errorf("sent %d state chunks with every fetch dropped", got)
	}
	if probes := col.Sent(cec.KindProbe); probes < 20 {
		t.Errorf("sent %d cec probes, want >= 20 (slot-by-slot replay of 40 slots)", probes)
	}
}

// TestStateTransferDonorCrashFallsBack: the preferred donor (the detector's
// trusted process, here with a stale view that still trusts the crashed p1)
// never answers; after TransferTimeout the requester moves to the next donor
// and still catches up.
func TestStateTransferDonorCrashFallsBack(t *testing.T) {
	const heal = 600 * time.Millisecond
	net := network.Partitioned{
		Under:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
		GroupA: map[dsys.ProcessID]bool{4: true},
		From:   0,
		Until:  heal,
	}
	dets := map[dsys.ProcessID]*fdtest.Scripted{
		1: fdtest.NewScripted(1, 4),
		2: fdtest.NewScripted(1, 4),
		3: fdtest.NewScripted(1, 4),
		// p4 heals with a stale detector view: trusts p1, suspects nobody —
		// so its first transfer attempt goes to the dead p1.
		4: fdtest.NewScripted(1),
	}
	k, reps, col := cluster(4, 12, net, func(id dsys.ProcessID) core.Config {
		return core.Config{Detector: dets[id], TransferChunk: 64, TransferTimeout: 30 * time.Millisecond,
			MaxBatch: 1, Pipeline: 1}
	})
	k.ScheduleFunc(20*time.Millisecond, func(time.Duration) {
		for i := 0; i < 30; i++ {
			reps[1].Submit(fmt.Sprintf("cmd-%d", i))
		}
	})
	k.CrashAt(1, heal+20*time.Millisecond)
	k.ScheduleFunc(heal+40*time.Millisecond, func(time.Duration) {
		for _, id := range []dsys.ProcessID{2, 3} {
			dets[id].Suspect(1)
			dets[id].Unsuspect(4)
			dets[id].SetTrusted(2)
		}
		reps[2].Submit("post-crash")
	})
	k.Run(3 * time.Second)
	assertSameLogs(t, reps, []dsys.ProcessID{2, 3, 4}, 31)
	// At least one fetch was wasted on the dead donor p1 before p2 served
	// the range.
	toDead, toLive := 0, 0
	for _, ev := range col.Events() {
		if ev.Kind == core.KindFetch && ev.From == 4 {
			if ev.To == 1 {
				toDead++
			} else {
				toLive++
			}
		}
	}
	if toDead == 0 || toLive == 0 {
		t.Errorf("fetches from p4: %d to crashed p1, %d to live donors; want both > 0 (timeout then fallback)", toDead, toLive)
	}
}

// TestOutOfOrderDecisionsParkUntilGapFills: decisions for slots 2 and 3
// arriving before slot 1's must park — nothing applied — and then apply in
// strict slot order the moment slot 1 lands. A replica crashing while its
// window is parked must not stop the others from applying correctly.
func TestOutOfOrderDecisionsParkUntilGapFills(t *testing.T) {
	const heal = 100 * time.Millisecond
	// Only state-transfer chunks pass before heal, so no consensus instance
	// can decide anything concurrently with the injected decisions.
	under := network.Reliable{Latency: network.Fixed(time.Millisecond)}
	net := network.Func(func(from, to dsys.ProcessID, kind string, now time.Duration, rng *rand.Rand) (time.Duration, bool) {
		if now < heal && kind != core.KindState {
			return 0, true // drop
		}
		return under.Plan(from, to, kind, now, rng)
	})
	dets := fdtest.NewCluster(3, 1)
	k, reps, _ := cluster(3, 21, net, func(id dsys.ProcessID) core.Config {
		return core.Config{Detector: dets.At(id)}
	})
	cmd := func(seq int64, v string) core.Command {
		return core.Command{Origin: 9, Seq: seq, Payload: v}
	}
	chunk := func(entries ...core.StateEntry) core.State {
		high := 0
		for _, e := range entries {
			if e.Slot > high {
				high = e.Slot
			}
		}
		return core.State{From: entries[0].Slot, High: high, Entries: entries}
	}
	// Slots 2 and 3 at 30ms; slot 1 only 65ms later.
	k.ScheduleFunc(30*time.Millisecond, func(time.Duration) {
		k.Spawn(1, "injector", func(p dsys.Proc) {
			for _, q := range p.All() {
				p.Send(q, core.KindState, chunk(
					core.StateEntry{Slot: 2, Round: 1, Batch: core.Batch{Cmds: []core.Command{cmd(102, "c2")}}},
					core.StateEntry{Slot: 3, Round: 1, Batch: core.Batch{Cmds: []core.Command{cmd(103, "c3")}}},
				))
			}
		})
	})
	k.ScheduleFunc(95*time.Millisecond, func(time.Duration) {
		k.Spawn(1, "injector", func(p dsys.Proc) {
			for _, q := range p.All() {
				p.Send(q, core.KindState, chunk(
					core.StateEntry{Slot: 1, Round: 1, Batch: core.Batch{Cmds: []core.Command{cmd(101, "c1")}}},
				))
			}
		})
	})
	// While slot 1 is missing, the later decisions must sit parked.
	k.ScheduleFunc(90*time.Millisecond, func(time.Duration) {
		for _, id := range dsys.Pids(3) {
			if got := reps[id].Applied(); len(got) != 0 {
				t.Errorf("replica %v applied %v with slot 1 still undecided; want parked", id, got)
			}
		}
	})
	// p3 crashes with its window parked (slot 1 arrives ~96ms, crash at 97ms
	// can race the apply on p3 — survivors are what matters).
	k.CrashAt(3, 97*time.Millisecond)
	k.ScheduleFunc(heal+30*time.Millisecond, func(time.Duration) {
		// Scripted detectors don't observe the crash on their own; suspect
		// p3 so consensus' wait-for-all-non-suspected rule can complete.
		dets.At(1).Suspect(3)
		dets.At(2).Suspect(3)
		reps[1].Submit("post")
	})
	k.Run(2 * time.Second)
	assertSameLogs(t, reps, []dsys.ProcessID{1, 2}, 4)
	want := []any{"c1", "c2", "c3", "post"}
	if got := reps[1].AppliedValues(); !reflect.DeepEqual(got, want) {
		t.Errorf("apply order %v, want %v", got, want)
	}
}

// TestPipelinedCatchUpViaStateTransfer: the partitioned rejoin with the
// pipeline enabled — the healed replica is a full window of slots behind and
// must catch up through the batch path, applying strictly in slot order,
// exactly like the sequential variant above.
func TestPipelinedCatchUpViaStateTransfer(t *testing.T) {
	reps, col := partitionedScenario(t, 40, func(cfg *core.Config) { cfg.Pipeline = 4 }, nil)
	assertSameLogs(t, reps, dsys.Pids(3), 41)
	if got := col.Sent(core.KindFetch); got < 5 {
		t.Errorf("sent %d fetches, want >= 5 (40 slots, chunk 8)", got)
	}
	if probes := col.Sent(cec.KindProbe); probes > 30 {
		t.Errorf("sent %d cec probes, want the batch path (few probes)", probes)
	}
}

// TestNoSpuriousTransferUnderPipelinedLoad pins the pipeline-aware frontier
// estimate: under a deep pipeline, kick announcements routinely run a full
// window ahead of a healthy peer's apply position. That in-flight gap must
// not read as "behind" — a healthy replica never triggers a blocking state
// transfer just because its neighbours pipeline aggressively.
func TestNoSpuriousTransferUnderPipelinedLoad(t *testing.T) {
	k, reps, col := cluster(3, 22, network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 6 * time.Millisecond}},
		func(id dsys.ProcessID) core.Config {
			return core.Config{MaxBatch: 1, Pipeline: 8}
		})
	for j := 0; j < 30; j++ {
		j := j
		k.ScheduleFunc(time.Duration(20+j*10)*time.Millisecond, func(time.Duration) {
			reps[1].Submit(fmt.Sprintf("a-%d", j))
			reps[2].Submit(fmt.Sprintf("b-%d", j))
		})
	}
	k.Run(3 * time.Second)
	assertSameLogs(t, reps, dsys.Pids(3), 60)
	if got := col.Sent(core.KindFetch); got != 0 {
		t.Errorf("healthy pipelined cluster sent %d state-transfer fetches, want 0", got)
	}
}

// TestCrashMidPipelineWindowConverges: a replica dies while a window of
// instances is in flight; the survivors finish every slot and agree.
func TestCrashMidPipelineWindowConverges(t *testing.T) {
	k, reps, _ := cluster(5, 23, network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 4 * time.Millisecond}},
		func(id dsys.ProcessID) core.Config {
			return core.Config{MaxBatch: 4, Pipeline: 8}
		})
	for j := 0; j < 10; j++ {
		j := j
		k.ScheduleFunc(time.Duration(10+j*5)*time.Millisecond, func(time.Duration) {
			for _, id := range []dsys.ProcessID{1, 2, 3, 4} {
				reps[id].Submit(fmt.Sprintf("%v/%d", id, j))
			}
		})
	}
	k.CrashAt(5, 37*time.Millisecond)
	k.Run(6 * time.Second)
	assertSameLogs(t, reps, []dsys.ProcessID{1, 2, 3, 4}, 40)
	// Per-origin FIFO survives the crash and the pipelined decide order.
	vals := reps[2].AppliedValues()
	last := map[dsys.ProcessID]int{}
	for _, v := range vals {
		var origin dsys.ProcessID
		var j int
		fmt.Sscanf(v.(string), "p%d/%d", &origin, &j)
		if prev, ok := last[origin]; ok && j <= prev {
			t.Fatalf("origin %v out of order: %v", origin, vals)
		}
		last[origin] = j
	}
}

// TestKickedCommandAppliedOnce is the regression test for the duplicate-
// apply race: a kick announcing command X for slot 2 reaches replicas still
// idle at slot 1, so they propose (and decide) X at slot 1 — and then the
// stale kick makes them propose X again at slot 2, where it is decided a
// second time. The command must still be applied exactly once.
func TestKickedCommandAppliedOnce(t *testing.T) {
	k, reps, _ := cluster(3, 13, reliable(), nil)
	x := core.Command{Origin: 9, Seq: 999, Payload: "X"}
	k.ScheduleFunc(30*time.Millisecond, func(time.Duration) {
		k.Spawn(1, "injector", func(p dsys.Proc) {
			for _, q := range p.All() {
				p.Send(q, core.KindKick, core.Kick{Slot: 2, Batch: core.Batch{Cmds: []core.Command{x}}})
			}
		})
	})
	k.ScheduleFunc(300*time.Millisecond, func(time.Duration) {
		reps[1].Submit("Y")
	})
	k.Run(2 * time.Second)
	for _, id := range dsys.Pids(3) {
		got := reps[id].Applied()
		// X decided at slots 1 AND 2; applied only at 1. Y's slot proves
		// slot 2 was consumed by the duplicate decision.
		want := []core.AppliedEntry{{Slot: 1, Cmd: x}}
		if len(got) != 2 || !reflect.DeepEqual(got[0], want[0]) || got[1].Cmd.Payload != "Y" || got[1].Slot != 3 {
			t.Fatalf("%v applied %v, want [X@1, Y@3] with X applied exactly once", id, got)
		}
	}
}
