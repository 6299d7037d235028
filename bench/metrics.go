package main

import "fmt"

// metricDef is one named metric as BENCHMARK.json lists it. Bound is only
// meaningful for end-to-end metrics.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // higher is better
	Bound  float64 // share of the parent's median by which it may worsen
}

// End-to-end metric names. Every workload emits every one of them; an
// "operation" is a submitted command on the four log workloads and one
// survivor's detection of the crash on sim_fd_scale (see README.md).
const (
	mSetup    = "setup_s"
	mOps      = "ops_s"
	mP50      = "op_p50_ms"
	mTail     = "op_tail_ms"
	mRetained = "retained_b_per_op"
)

var endToEnd = []metricDef{
	{Name: mSetup, Unit: "s", Bound: 0.25},
	{Name: mOps, Unit: "1/s", Higher: true, Bound: 0.25},
	{Name: mP50, Unit: "ms", Bound: 0.25},
	{Name: mTail, Unit: "ms", Bound: 0.25},
	{Name: mRetained, Unit: "B", Bound: 0.10},
}

// perLayer lists the traced run's metrics, grouped by the module they
// attribute time or work to. A workload that bypasses a layer reports 0 for
// that layer's metrics.
var perLayer = []metricDef{
	{Name: "core.submit_ns", Unit: "ns"},
	{Name: "core.queue_wait_ms", Unit: "ms"},
	{Name: "core.cmds_per_slot", Unit: "count", Higher: true},
	{Name: "core.apply_lag_ms", Unit: "ms"},
	{Name: "core.fetches", Unit: "count"},
	{Name: "core.applied_call_ms", Unit: "ms"},
	{Name: "cec.phase0_ms", Unit: "ms"},
	{Name: "cec.phase12_ms", Unit: "ms"},
	{Name: "cec.phase34_ms", Unit: "ms"},
	{Name: "cec.msgs_per_slot", Unit: "count"},
	{Name: "cec.rounds_per_decide", Unit: "count"},
	{Name: "cec.nacks", Unit: "count"},
	{Name: "cec.probes", Unit: "count"},
	{Name: "rbcast.msgs_per_slot", Unit: "count"},
	{Name: "rbcast.decide_to_apply_ms", Unit: "ms"},
	{Name: "fd.detect_ms", Unit: "ms"},
	{Name: "fd.leader_ms", Unit: "ms"},
	{Name: "fd.false_suspicions", Unit: "count"},
	{Name: "fd.msgs_per_period", Unit: "count"},
	{Name: "fd.query_ns", Unit: "ns"},
	{Name: "sim.events", Unit: "count"},
	{Name: "sim.events_s", Unit: "1/s", Higher: true},
	{Name: "sim.allocs_per_event", Unit: "count"},
	{Name: "sim.build_s", Unit: "s"},
	{Name: "sim.floor_wall_s", Unit: "s"},
	{Name: "sim.peak_heap_mb", Unit: "MB"},
	{Name: "network.plan_ns", Unit: "ns"},
	{Name: "network.plans", Unit: "count"},
	{Name: "trace.overhead_frac", Unit: "frac"},
	{Name: "wire.encode_ns_per_frame", Unit: "ns"},
	{Name: "wire.decode_ns_per_frame", Unit: "ns"},
	{Name: "wire.bytes_per_frame", Unit: "B"},
	{Name: "wire.bytes_per_cmd", Unit: "B"},
	{Name: "tcpnet.frames_per_cmd", Unit: "count"},
	{Name: "tcpnet.drops", Unit: "count"},
	{Name: "tcpnet.redials", Unit: "count"},
	{Name: "tcpnet.flood_msgs_s", Unit: "1/s", Higher: true},
	{Name: "live.mailbox_roundtrip_us", Unit: "us"},
	{Name: "proc.allocs_per_op", Unit: "count"},
	{Name: "proc.cpu_s_per_kop", Unit: "s"},
	{Name: "proc.gc_pause_ms", Unit: "ms"},
	{Name: "proc.peak_rss_mb", Unit: "MB"},
	{Name: "gen.late_p99_ms", Unit: "ms"},
}

// report is what one run of one workload produces.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Invalid marks a run whose surviving logs broke prefix agreement, FIFO
	// or payload integrity: every operation of such a run counts as failed.
	Invalid bool               `json:"invalid,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	// Samples holds the sample count behind each timing, and Info the
	// derived readings (ISSUE-named aliases, the supported tail percentile)
	// that are printed but not gated.
	Samples map[string]int     `json:"samples,omitempty"`
	Info    map[string]float64 `json:"info,omitempty"`
}

func newReport(workload string, seed int64, traced bool) *report {
	return &report{
		Workload: workload, Seed: seed, Traced: traced,
		Metrics: map[string]float64{},
		Samples: map[string]int{},
		Info:    map[string]float64{},
	}
}

func (r *report) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed and no operation failed.
func (r *report) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// failedFrac is the share of attempted operations that failed.
func (r *report) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// defs returns the metric list this report must carry.
func (r *report) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}
