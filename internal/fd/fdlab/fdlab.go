// Package fdlab is the shared scaffolding for failure-detector experiments
// and integration tests: it wires n processes — simulated (Run) or on a live
// cluster (RunLive) — attaches one detector module per process, injects
// crashes, samples every module's output, and returns the recorded trace
// for property evaluation.
package fdlab

import (
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/dsys"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Setup describes one detector run.
type Setup struct {
	// N is the number of processes.
	N int
	// Seed drives all randomness.
	Seed int64
	// Net is the link model. Required.
	Net network.Network
	// Crashes maps processes to their crash times.
	Crashes map[dsys.ProcessID]time.Duration
	// Build constructs the detector module of one process (spawning its
	// tasks on p) and returns it; the module is probed through
	// check.ProbeOf, so it may implement either or both query interfaces.
	Build func(p dsys.Proc) any
	// SampleEvery is the probe period (default 5ms).
	SampleEvery time.Duration
	// RunFor is the virtual duration of the run (default 2s).
	RunFor time.Duration
	// CountWindow, when non-zero, puts the trace collector in windowed-count
	// mode: per-kind sends are tallied for [CountWindow[0], CountWindow[1])
	// (read back via Result.Messages.SentWithin) and the per-message log is
	// disabled. Large-n sweeps need this — logging every send of an n²
	// detector at n=256 costs hundreds of MB and dominates the wall clock.
	CountWindow [2]time.Duration
}

// Result is a completed detector run.
type Result struct {
	Trace    check.FDTrace
	Messages *trace.Collector
	End      time.Duration
	// Modules holds each process's detector handle, for stats queries.
	Modules map[dsys.ProcessID]any
	// Events is the number of simulator events the run fired.
	Events uint64
	// Wall is the wall-clock duration of the run — nondeterministic, so it
	// must only feed throughput reporting, never table cells that the
	// byte-identical determinism guarantee covers.
	Wall time.Duration
}

// Run executes the setup and returns the recorded trace.
func Run(s Setup) Result {
	if s.SampleEvery <= 0 {
		s.SampleEvery = 5 * time.Millisecond
	}
	if s.RunFor <= 0 {
		s.RunFor = 2 * time.Second
	}
	col := trace.NewCollector()
	if s.CountWindow != ([2]time.Duration{}) {
		col.LogMessages = false
		col.SetCountWindow(s.CountWindow[0], s.CountWindow[1])
	}
	k := sim.New(sim.Config{N: s.N, Network: s.Net, Seed: s.Seed, Trace: col})
	rec := check.NewFDRecorder(s.N)
	modules := make(map[dsys.ProcessID]any, s.N)
	for _, id := range dsys.Pids(s.N) {
		id := id
		k.Spawn(id, "fd-setup", func(p dsys.Proc) {
			m := s.Build(p)
			modules[id] = m
			rec.SetProbe(id, check.ProbeOf(m))
		})
	}
	for id, at := range s.Crashes {
		k.CrashAt(id, at)
	}
	rec.Attach(k, s.SampleEvery, s.SampleEvery)
	start := time.Now()
	end := k.Run(s.RunFor)
	return Result{
		Trace:    check.FDTrace{N: s.N, Rec: rec, Crashed: col.Crashed()},
		Messages: col,
		End:      end,
		Modules:  modules,
		Events:   k.Events(),
		Wall:     time.Since(start),
	}
}

// RunLive is Run's wall-clock twin on a live cluster of s.N processes (an
// in-memory network model or a socket transport): it builds one detector
// module per process, crashes each process of s.Crashes when its time has
// passed, samples every live module each s.SampleEvery until s.RunFor, and
// returns the recorded trace. Seed, Net and CountWindow belong to the
// simulator and are ignored; the cluster brings its own network. The caller
// stops the cluster.
func RunLive(c *live.Cluster, s Setup) check.FDTrace {
	if s.SampleEvery <= 0 {
		s.SampleEvery = 5 * time.Millisecond
	}
	if s.RunFor <= 0 {
		s.RunFor = 2 * time.Second
	}
	rec := check.NewFDRecorder(s.N)
	var mu sync.Mutex // guards the recorder: probes arrive from the tasks
	for _, id := range dsys.Pids(s.N) {
		c.Spawn(id, "fd-setup", func(p dsys.Proc) {
			probe := check.ProbeOf(s.Build(p))
			mu.Lock()
			rec.SetProbe(id, probe)
			mu.Unlock()
		})
	}
	crashed := make(map[dsys.ProcessID]time.Duration, len(s.Crashes))
	start := time.Now()
	for time.Since(start) < s.RunFor {
		now := time.Since(start)
		for id, at := range s.Crashes {
			if _, done := crashed[id]; !done && now >= at {
				crashed[id] = c.Now()
				c.Crash(id)
			}
		}
		at := c.Now()
		mu.Lock()
		rec.Sample(at, c.Crashed)
		mu.Unlock()
		time.Sleep(s.SampleEvery)
	}
	return check.FDTrace{N: s.N, Rec: rec, Crashed: crashed}
}

// PartialSync is a convenient default network: partially synchronous with
// the given GST and Δ.
func PartialSync(gst, delta time.Duration) network.Network {
	return network.PartiallySynchronous{GST: gst, Delta: delta}
}
