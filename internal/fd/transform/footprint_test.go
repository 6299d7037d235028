package transform_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/transform"
	"repro/internal/network"
	"repro/internal/sim"
)

// retainedPerProcess builds an n-process population with build, runs it for
// 300 virtual ms through one crash, and returns the live heap it holds on to
// per surviving process.
func retainedPerProcess(n int, build func(p dsys.Proc) any) float64 {
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	k := sim.New(sim.Config{N: n, Network: network.Reliable{Latency: network.Fixed(time.Millisecond)}, Seed: 1})
	mods := make([]any, n)
	for _, id := range dsys.Pids(n) {
		k.Spawn(id, "fd-setup", func(p dsys.Proc) { mods[p.ID()-1] = build(p) })
	}
	k.CrashAt(dsys.ProcessID(n/2), 100*time.Millisecond)
	k.Run(300 * time.Millisecond)
	after := live()
	runtime.KeepAlive(k)
	runtime.KeepAlive(mods)
	return (float64(after) - float64(before)) / float64(n-1)
}

// TestFollowerFootprint pins the point of role-sized detector state: a
// transform population's memory is linear in n, because only the leader holds
// a per-peer table. What a process retains for the detector is read as the
// difference between a transform population and a control population whose
// processes run the same five loop tasks, at the same periods and with the
// same traffic, around no state at all — so the simulator's own per-process
// and per-task memory cancels. With two n-entry maps per process the
// difference was 75 KB per process at this n, and grew with it.
func TestFollowerFootprint(t *testing.T) {
	const n = 1024
	period := 10 * time.Millisecond
	with := retainedPerProcess(n, func(p dsys.Proc) any {
		return transform.Start(p, fdtest.NewScripted(1), transform.Options{Period: period})
	})
	control := retainedPerProcess(n, func(p dsys.Proc) any {
		idle := func(dsys.Proc) {}
		drop := func(dsys.Proc, *dsys.Message) {}
		dsys.SpawnTickLoop(p, "task1", dsys.TickLoop{Period: period, Immediate: true, Fn: func(p dsys.Proc) {
			if p.ID() != 1 {
				return
			}
			for _, q := range p.All()[1:] {
				p.Send(q, transform.KindList, nil)
			}
		}})
		dsys.SpawnTickLoop(p, "task2", dsys.TickLoop{Period: period, Immediate: true, Fn: func(p dsys.Proc) {
			if p.ID() != 1 {
				p.Send(1, transform.KindAlive, nil)
			}
		}})
		dsys.SpawnTickLoop(p, "task34", dsys.TickLoop{
			Period: period / 2,
			Setup:  func(p dsys.Proc) { dsys.SpawnRecvLoop(p, "task4", drop, transform.KindAlive) },
			Fn:     idle,
		})
		dsys.SpawnRecvLoop(p, "task5", drop, transform.KindList)
		return nil
	})
	if got := with - control; got >= 2048 {
		t.Errorf("transform retains %.0f B per non-leader process at n=%d (population %.0f B, control %.0f B), want under 2 KB", got, n, with, control)
	}
}
