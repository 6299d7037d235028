package core_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/sim"
)

// simLogAllocsCeiling is 1.5× the allocations per event this test measures
// with the replica's driver, instance runners and responder and cec's
// instances as step tasks, and cec's round stores one record per round
// (1.10). With those tasks blocking on goroutines it measured 2.00 (and the
// sim_log benchmark's traced sim.allocs_per_event ≈2.3): a goroutine per slot
// per replica, a heap copy of every message a blocking task received, and
// eight maps per instance plus four per round.
const simLogAllocsCeiling = 1.5 * 1.10

// TestSimLogStartsNoGoroutine runs an n=5 replicated log on the simulator —
// one command per millisecond per origin for a virtual second, the leader
// crashing half-way — and requires that, once the replicas are set up, it
// starts no goroutine: every task of the log runs as a callback on the
// kernel. It also bounds allocations per kernel event, the cost goroutines
// and per-receive heap copies used to add.
func TestSimLogStartsNoGoroutine(t *testing.T) {
	const n = 5
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	k := sim.New(sim.Config{N: n, Network: network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond}}, Seed: 1})
	reps := make(map[dsys.ProcessID]*core.Replica, n)
	for _, id := range dsys.Pids(n) {
		k.Spawn(id, "replica", func(p dsys.Proc) { reps[id] = core.StartReplica(p, core.Config{}) })
	}
	// The setup tasks above are the harness's; by time 0's first event they
	// have all run.
	setup, peak := -1, 0
	k.ScheduleFunc(0, func(time.Duration) { setup = runtime.NumGoroutine() })
	ids := dsys.Pids(n)
	k.Every(time.Millisecond, time.Millisecond, func(now time.Duration) {
		peak = max(peak, runtime.NumGoroutine())
		if now > time.Second {
			return
		}
		for _, id := range ids {
			if !k.Crashed(id) {
				reps[id].Submit("cmd")
			}
		}
	})
	k.CrashAt(1, 500*time.Millisecond)
	k.Run(1200 * time.Millisecond)
	runtime.ReadMemStats(&ms1)

	if got, want := reps[2].AppliedLen(), 4*1000; got < want {
		t.Fatalf("p2 applied %d commands, want at least %d: the run does not exercise the log", got, want)
	}
	if peak > setup {
		t.Errorf("%d goroutines during the run, %d right after setup: a log task runs on a goroutine", peak, setup)
	}
	perEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(k.Events())
	t.Logf("%.3f allocs/event over %d events (ceiling %.3f)", perEvent, k.Events(), simLogAllocsCeiling)
	if perEvent > simLogAllocsCeiling {
		t.Errorf("%.3f allocs/event, ceiling %.3f", perEvent, simLogAllocsCeiling)
	}
}
