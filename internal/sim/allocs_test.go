package sim

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/dsys"
)

// kernelWorkload is one deterministic kernel run that floods a single hot
// path. Its allocations per simulator event are what the typed-event fast
// path (heap.go), the message arena and the callback loop tasks exist to keep
// down, so the count is comparable across revisions and across machines.
type kernelWorkload struct {
	name   string
	build  func() *Kernel
	runFor time.Duration
	// ceiling is the highest allocs/event TestKernelAllocsPerEvent accepts.
	ceiling float64
}

// The ceilings are the allocs/event gate CI applied before this test existed,
// carried over unchanged: max(1.5 × the value the repository's committed
// benchmark baseline recorded for the workload at commit 1ae84ab, 0.01).
// broadcast, added later, has the same rule applied to its measured value
// (0.0009-0.0010 allocs/event on a 2-core x86-64 host).
// Each run builds one kernel and runs it once, so setup is part of the count.
var kernelWorkloads = []kernelWorkload{
	// send: 8 processes forward tokens around a ring from receive-loop
	// callbacks, so nearly every event is a message delivery — arena slot
	// out, callback, arena slot back. This is the deliver/park cycle every detector's receive task
	// runs on.
	{name: "send", build: func() *Kernel {
		const n = 8
		k := New(reliableCfg(n, 1))
		for _, id := range dsys.Pids(n) {
			next := dsys.ProcessID(int(id)%n + 1)
			k.SpawnRecvLoop(id, "flood", func(p dsys.Proc, m *dsys.Message) {
				p.Send(next, "ping", nil)
			}, "ping")
			// One token per process: n tokens circulate the ring
			// concurrently.
			k.Spawn(id, "seed", func(p dsys.Proc) { p.Send(next, "ping", nil) })
		}
		return k
	}, runFor: 2 * time.Second, ceiling: 0.0500},
	// timer: every event is a tick-loop fire — FIFO pop, callback, FIFO
	// push. This is the cycle every detector's
	// periodic send/check task runs on.
	{name: "timer", build: func() *Kernel {
		const n = 4
		k := New(reliableCfg(n, 1))
		for _, id := range dsys.Pids(n) {
			for i := 0; i < 2; i++ {
				k.SpawnTickLoop(id, "tick", dsys.TickLoop{
					Period: time.Millisecond,
					Fn:     func(p dsys.Proc) {},
				})
			}
		}
		return k
	}, runFor: 2 * time.Second, ceiling: 0.0355},
	// broadcast: all-to-all heartbeats at n = 64 — a 10ms tick loop sending
	// one beat to every other process, consumed by a receive-loop callback —
	// so nearly every event delivers one copy of a slot shared by the
	// burst's 63 copies. This is the cycle the heartbeat ◇P runs on.
	{name: "broadcast", build: func() *Kernel {
		const n = 64
		k := New(reliableCfg(n, 1))
		for _, id := range dsys.Pids(n) {
			k.SpawnTickLoop(id, "beat", dsys.TickLoop{
				Period:    10 * time.Millisecond,
				Immediate: true,
				Fn: func(p dsys.Proc) {
					for _, q := range p.All() {
						if q != id {
							p.Send(q, "beat", nil)
						}
					}
				},
			})
			k.SpawnRecvLoop(id, "sink", func(p dsys.Proc, m *dsys.Message) {}, "beat")
		}
		return k
	}, runFor: 2 * time.Second, ceiling: 0.0100},
	// scale: E14's population sizes running a ring-heartbeat-shaped workload
	// — a 10ms tick loop sending a beat to the ring successor, consumed by a
	// receive-loop callback — so events split between timer fires and
	// message deliveries like a large-n detector sweep. The short run keeps
	// one kernel's setup in the count, hence the higher allocs/event.
	scaleWorkload(256, 0.249),
	scaleWorkload(1024, 0.213),
	scaleWorkload(4096, 0.202),
}

func scaleWorkload(n int, ceiling float64) kernelWorkload {
	return kernelWorkload{name: "scale-n=" + strconv.Itoa(n), build: func() *Kernel {
		k := New(reliableCfg(n, 14))
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
	}, runFor: 500 * time.Millisecond, ceiling: ceiling}
}

// measureKernel builds and runs w runs times, returning the events fired, the
// heap allocations made while building and running, and the wall time.
func measureKernel(w kernelWorkload, runs int) (events, mallocs uint64, wall time.Duration) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < runs; i++ {
		k := w.build()
		k.Run(w.runFor)
		events += k.Events()
	}
	wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	return events, ms1.Mallocs - ms0.Mallocs, wall
}

// TestKernelAllocsPerEvent is the kernel's allocation gate: per-event
// allocations creeping back into a hot path fail it on any machine.
func TestKernelAllocsPerEvent(t *testing.T) {
	for _, w := range kernelWorkloads {
		t.Run(w.name, func(t *testing.T) {
			events, mallocs, _ := measureKernel(w, 1)
			if events == 0 {
				t.Fatal("workload fired no events")
			}
			got := float64(mallocs) / float64(events)
			t.Logf("%.4f allocs/event over %d events (ceiling %.4f)", got, events, w.ceiling)
			if got > w.ceiling {
				t.Errorf("%.4f allocs/event, ceiling %.4f", got, w.ceiling)
			}
		})
	}
}

// BenchmarkKernel reports simulator events per wall-clock second and heap
// allocations per event for every kernel workload.
func BenchmarkKernel(b *testing.B) {
	for _, w := range kernelWorkloads {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			events, mallocs, wall := measureKernel(w, b.N)
			b.ReportMetric(float64(events)/wall.Seconds(), "events/s")
			b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
		})
	}
}
