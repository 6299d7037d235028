package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/sim"
)

// applyRecord is one applied command as (slot, origin, seq).
type applyRecord struct {
	slot   int
	origin dsys.ProcessID
	seq    int64
}

func recordsOf(entries []core.AppliedEntry) []applyRecord {
	out := make([]applyRecord, len(entries))
	for i, e := range entries {
		out[i] = applyRecord{e.Slot, e.Cmd.Origin, e.Cmd.Seq}
	}
	return out
}

// applyRecorder returns an Apply callback that records every call and, from
// inside the call, checks that the replica's readers already agree on it:
// AppliedLen equals len(Applied()), and Applied() ends with the command being
// applied.
func applyRecorder(t *testing.T, rep func() *core.Replica, got *[]applyRecord) func(int, core.Command) {
	return func(slot int, cmd core.Command) {
		rec := applyRecord{slot, cmd.Origin, cmd.Seq}
		*got = append(*got, rec)
		applied := rep().Applied()
		if n := rep().AppliedLen(); n != len(applied) || n != len(*got) {
			t.Errorf("inside Apply of %+v: AppliedLen() = %d, len(Applied()) = %d, want %d", rec, n, len(applied), len(*got))
			return
		}
		if last := recordsOf(applied[len(applied)-1:])[0]; last != rec {
			t.Errorf("inside Apply of %+v: Applied() ends with %+v", rec, last)
		}
	}
}

func cmd(origin dsys.ProcessID, seq int64) core.Command {
	return core.Command{Origin: origin, Seq: seq, Payload: fmt.Sprintf("%v/%d", origin, seq)}
}

// TestCommandDecidedTwiceAppliesOnceAtFirstSlot: a replica idle at slot j
// that received a kick for slot k > j proposes the kicked batch at j while
// the kicker proposes it at k, and both instances can decide it. Each command
// then applies once, at the first slot that carries it, whatever order the
// decisions arrive in; Applied() is exactly the Apply callbacks, also when
// read from inside one.
func TestCommandDecidedTwiceAppliesOnceAtFirstSlot(t *testing.T) {
	var r *core.Replica
	var got []applyRecord
	r = core.NewLogOnly(1, applyRecorder(t, func() *core.Replica { return r }, &got))

	// Slot 2 decides first and parks: slot 1 is still open.
	r.RecordDecision(2, 1, core.Batch{Cmds: []core.Command{cmd(2, 2), cmd(3, 1)}})
	r.DrainApplies()
	if len(got) != 0 || r.ParkedLen() != 1 {
		t.Fatalf("slot 2 applied before slot 1 (applied %v, %d parked)", got, r.ParkedLen())
	}
	r.RecordDecision(1, 1, core.Batch{Cmds: []core.Command{cmd(2, 1), cmd(2, 2)}})
	r.RecordDecision(3, 2, core.Batch{Cmds: []core.Command{cmd(3, 1)}}) // all of it already in slot 2
	r.RecordDecision(4, 1, core.Batch{})                                // a no-op slot
	r.RecordDecision(5, 1, core.Batch{Cmds: []core.Command{cmd(3, 2), cmd(2, 1), cmd(2, 3)}})
	r.DrainApplies()

	want := []applyRecord{{1, 2, 1}, {1, 2, 2}, {2, 3, 1}, {5, 3, 2}, {5, 2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Apply calls %v, want %v", got, want)
	}
	if applied := recordsOf(r.Applied()); !reflect.DeepEqual(applied, want) {
		t.Errorf("Applied() = %v, want the Apply calls %v", applied, want)
	}
	if vals, wantVals := r.AppliedValues(), []any{"p2/1", "p2/2", "p3/1", "p3/2", "p2/3"}; !reflect.DeepEqual(vals, wantVals) {
		t.Errorf("AppliedValues() = %v, want %v", vals, wantVals)
	}
	if r.AppliedLen() != len(want) || r.ParkedLen() != 0 {
		t.Errorf("AppliedLen() = %d, %d parked; want %d, 0", r.AppliedLen(), r.ParkedLen(), len(want))
	}
	// Decisions are facts: a second decision for an applied or a parked slot
	// is not new, and a slot number below 1 is not a log slot.
	for _, s := range []int{1, 5, 0, -3} {
		if r.RecordDecision(s, 9, core.Batch{Cmds: []core.Command{cmd(9, 9)}}) {
			t.Errorf("RecordDecision(%d) recorded a second or invalid decision", s)
		}
	}
	if r.ParkedLen() != 0 {
		t.Errorf("%d decisions parked after rejected records", r.ParkedLen())
	}
}

// TestRestartedOriginLeavesTwoRuns: an origin's commands apply in Seq order,
// so its dedup state is one run per incarnation (SeqBase), however many
// commands each incarnation submitted and however they were batched.
func TestRestartedOriginLeavesTwoRuns(t *testing.T) {
	r := core.NewLogOnly(1, nil)
	const base = int64(1_700_000_000_000_000_000) // a wall-clock SeqBase, as ecnode passes
	slot := 0
	decide := func(cmds ...core.Command) {
		slot++
		r.RecordDecision(slot, 1, core.Batch{Cmds: cmds})
	}
	for seq := int64(1); seq <= 100; seq += 4 {
		decide(cmd(2, seq), cmd(3, 1+seq/4), cmd(2, seq+1), cmd(2, seq+2), cmd(2, seq+3))
	}
	// p2 restarts with a new SeqBase; its first life's tail is replayed by a
	// second decision of an old batch.
	for seq := base + 1; seq <= base+50; seq++ {
		decide(cmd(2, seq))
	}
	decide(cmd(2, 97), cmd(2, 98))
	r.DrainApplies()
	if n := r.AppliedLen(); n != 100+25+50 {
		t.Fatalf("AppliedLen() = %d, want %d", n, 100+25+50)
	}
	if runs := r.SeenRuns(2); runs != 2 {
		t.Errorf("restarted origin p2 occupies %d runs, want 2", runs)
	}
	if runs := r.SeenRuns(3); runs != 1 {
		t.Errorf("origin p3 occupies %d runs, want 1", runs)
	}
}

// TestAppliedMatchesApplyCallbacks: on a batched, pipelined cluster with
// every replica submitting, each replica's Applied() is exactly its sequence
// of Apply callbacks, and the two readers agree inside every callback.
func TestAppliedMatchesApplyCallbacks(t *testing.T) {
	const n = 3
	got := map[dsys.ProcessID]*[]applyRecord{}
	for _, id := range dsys.Pids(n) {
		got[id] = new([]applyRecord)
	}
	var reps map[dsys.ProcessID]*core.Replica
	k, reps, _ := cluster(n, 11, network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 4 * time.Millisecond}}, func(id dsys.ProcessID) core.Config {
		return core.Config{MaxBatch: 8, Apply: applyRecorder(t, func() *core.Replica { return reps[id] }, got[id])}
	})
	for j := 0; j < 40; j++ {
		k.ScheduleFunc(time.Duration(10+j)*time.Millisecond, func(time.Duration) {
			for _, id := range dsys.Pids(n) {
				reps[id].Submit(fmt.Sprintf("%v/%d", id, j))
			}
		})
	}
	k.Run(3 * time.Second)
	for _, id := range dsys.Pids(n) {
		if len(*got[id]) != n*40 {
			t.Fatalf("%v applied %d commands, want %d", id, len(*got[id]), n*40)
		}
		if applied := recordsOf(reps[id].Applied()); !reflect.DeepEqual(applied, *got[id]) {
			t.Errorf("%v: Applied() differs from its Apply calls", id)
		}
	}
}

// retainedLog runs an n=3 log under a steady stream of cmds commands (core
// defaults: batches of up to 64, a window of 4) to quiescence and returns the
// live heap it holds on to afterwards, with the replicas.
func retainedLog(t *testing.T, cmds int) (float64, map[dsys.ProcessID]*core.Replica) {
	const n = 3
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	k := sim.New(sim.Config{N: n, Network: reliable(), Seed: 1})
	reps := make(map[dsys.ProcessID]*core.Replica, n)
	for _, id := range dsys.Pids(n) {
		k.Spawn(id, "replica", func(p dsys.Proc) { reps[id] = core.StartReplica(p, core.Config{}) })
	}
	// Eight commands per replica per millisecond, no payload: what is left
	// is the log's own bookkeeping, not the commands' contents.
	const perTick = 8
	ticks := cmds / (n * perTick)
	for j := 0; j < ticks; j++ {
		k.ScheduleFunc(time.Duration(10+j)*time.Millisecond, func(time.Duration) {
			for _, id := range dsys.Pids(n) {
				for range perTick {
					reps[id].Submit(nil)
				}
			}
		})
	}
	k.Run(time.Duration(ticks)*time.Millisecond + 2*time.Second)
	for _, id := range dsys.Pids(n) {
		if got := reps[id].AppliedLen(); got != ticks*n*perTick {
			t.Fatalf("%d commands: %v applied %d", cmds, id, got)
		}
	}
	after := live()
	runtime.KeepAlive(k)
	return float64(after) - float64(before), reps
}

// TestLogFootprint pins what a replicated log keeps per applied command:
// each decided batch once, not a second applied-entry copy and a per-command
// dedup map entry beside it. The per-command cost is read as the difference
// between a long and a short run, so the simulator's and the detectors'
// fixed memory cancels. It reads about 22 B; with the applied copy and the
// dedup map it read about 104 B.
func TestLogFootprint(t *testing.T) {
	const short, long, n = 1200, 6000, 3
	small, _ := retainedLog(t, short)
	big, reps := retainedLog(t, long)
	perCmd := (big - small) / float64((long-short)*n)
	t.Logf("%.1f B per command per replica", perCmd)
	if perCmd >= 40 {
		t.Errorf("the log retains %.1f B per applied command per replica, want under 40 B", perCmd)
	}
	for _, id := range dsys.Pids(n) {
		if parked := reps[id].ParkedLen(); parked > 4 {
			t.Errorf("%v keeps %d parked decisions at quiescence, want at most the pipeline window (4)", id, parked)
		}
		if runs, sources := reps[id].DeliveredRuns(); runs != sources {
			t.Errorf("%v's broadcast module keeps %d runs for %d (origin, incarnation) sources, want one each", id, runs, sources)
		}
	}
}
