package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/tcpnet"
)

// pendingBurst is the number of commands one replica absorbs at once: far
// more than a drained pending buffer may keep room for.
const pendingBurst = 10_000

// TestDrainedPendingGivesBackItsBurst submits a burst of commands at one
// replica of an n=3 simulated log and requires that, once every command has
// applied, the replica's pending buffer keeps at most core.PendingKeep of
// capacity instead of the array the burst grew.
func TestDrainedPendingGivesBackItsBurst(t *testing.T) {
	const n = 3
	k := sim.New(sim.Config{N: n, Network: network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond}}, Seed: 1})
	reps := make([]*core.Replica, n+1)
	for _, id := range dsys.Pids(n) {
		k.Spawn(id, "replica", func(p dsys.Proc) { reps[id] = core.StartReplica(p, core.Config{}) })
	}
	peak := 0
	k.ScheduleFunc(10*time.Millisecond, func(time.Duration) {
		for i := 0; i < pendingBurst; i++ {
			reps[2].Submit(i)
		}
		peak = reps[2].PendingCap()
	})
	k.Run(5 * time.Second)
	checkDrainedPending(t, reps[2], peak)
}

// TestDrainedPendingGivesBackItsBurstOverTCP is the same burst on a real
// mesh, where Submit runs on the test goroutine while the replica's tasks
// apply on theirs (CI runs the package under -race).
func TestDrainedPendingGivesBackItsBurstOverTCP(t *testing.T) {
	const n = 3
	m, err := tcpnet.New(tcpnet.Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	reps := make([]*core.Replica, n+1)
	ready := make(chan struct{}, n)
	for _, id := range dsys.Pids(n) {
		m.Spawn(id, "replica", func(p dsys.Proc) {
			reps[id] = core.StartReplica(p, core.Config{})
			ready <- struct{}{}
		})
	}
	for i := 0; i < n; i++ {
		<-ready
	}
	for i := 0; i < pendingBurst; i++ {
		reps[2].Submit(i)
	}
	peak := reps[2].PendingCap()
	waitApplied(t, reps[1:], pendingBurst)
	checkDrainedPending(t, reps[2], peak)
}

func checkDrainedPending(t *testing.T, r *core.Replica, peak int) {
	t.Helper()
	if got := r.AppliedLen(); got < pendingBurst {
		t.Fatalf("%d of %d commands applied", got, pendingBurst)
	}
	if peak <= core.PendingKeep {
		t.Fatalf("the burst grew pending to %d, not past the floor %d: the test exercises nothing", peak, core.PendingKeep)
	}
	if got := r.PendingCount(); got != 0 {
		t.Fatalf("%d commands still pending", got)
	}
	if got := r.PendingCap(); got > core.PendingKeep {
		t.Errorf("drained pending keeps capacity %d (peak %d), want at most %d", got, peak, core.PendingKeep)
	}
}
