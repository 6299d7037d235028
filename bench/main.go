// Command bench is the repository's one benchmark: five named workloads over
// the ◇C stack, each emitting the same end-to-end metrics (and, traced, the
// same per-layer metrics), with the outputs checked before anything prints.
// BENCHMARK.json at the repository root names the command, the workloads and
// every metric; README.md says why each was chosen.
//
//	bash bench/run.sh --workload live_batched --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh                    # every workload, end-to-end metrics
//	bash bench/run.sh -trace 1           # every workload, per-layer metrics
//	bash bench/run.sh -sets 2 -json out  # run twice, compare, write both sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
)

// defaultSeed is the seed of an unseeded run and of BASELINE.json.
const defaultSeed = 20010704

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(runOpts) *report
	// exact lists the metrics that are virtual-time readings or counts of a
	// deterministic simulation: for one seed they must repeat bit for bit.
	exact []string
}

var workloads = []workload{
	{name: "live_batched", run: func(o runOpts) *report { return runLiveSteady(liveBatched, o) }},
	{name: "live_single", run: func(o runOpts) *report { return runLiveSteady(liveSingle, o) }},
	{name: "live_failover", run: runLiveFailover},
	{name: "sim_fd_scale", run: runSimFD, exact: []string{mP50, mTail, "sim.events", "fd.msgs_per_period", "fd.detect_ms", "network.plans"}},
	{name: "sim_log", run: runSimLogWorkload, exact: []string{mP50, mTail, "sim.events", "fd.msgs_per_period", "fd.detect_ms", "fd.leader_ms", "network.plans",
		"core.cmds_per_slot", "cec.msgs_per_slot", "cec.rounds_per_decide", "cec.nacks", "rbcast.msgs_per_slot"}},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// complete fills the metrics a workload left out — the layers it bypasses —
// with 0, reports any metric that is missing or not finite, and fails every
// operation of a run whose logs broke a whole-run invariant.
func complete(r *report) {
	if r.Invalid {
		r.Failed = r.Attempted
	}
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.Name]
		if !ok && r.Traced {
			r.Metrics[d.Name] = 0
			continue
		}
		if !ok || !isFinite(v) {
			r.problemf("metric %s is missing or not finite (%v)", d.Name, v)
			r.Metrics[d.Name] = 0
		}
	}
}

// printReport writes one run's metrics by name with unit, then its checks.
func printReport(r *report) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed=%d  %s\n", r.Workload, r.Seed, mode)
	for _, d := range r.defs() {
		n := ""
		if c, ok := r.Samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("  %-28s %16.6g %-6s%s\n", d.Name, r.Metrics[d.Name], d.Unit, n)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %16.6g        (derived)\n", k, r.Info[k])
	}
	fmt.Printf("  %-28s %16.6g frac    (%d of %d operations)\n", "failed_frac", r.failedFrac(), r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine() resultLine {
	out := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, d := range r.defs() {
		out.Metrics[d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return out
}

// runOne runs a workload once and validates its report.
func runOne(w *workload, o runOpts) *report {
	o.exact = w.exact
	// Start from a collected heap, as a process of its own would: in a suite
	// the previous workload's garbage (over a GB after a traced sim_fd_scale)
	// would otherwise be swept during this one's set-ups.
	debug.FreeOSMemory()
	r := w.run(o)
	complete(r)
	return r
}

// suite is every workload's report for one seed.
type suite struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Reports []*report `json:"reports"`
}

func runSuite(o runOpts, traced bool) (*suite, bool) {
	s := &suite{Seed: o.seed, Seconds: o.seconds}
	ok := true
	for i := range workloads {
		for _, tr := range []bool{false, true} {
			if tr && !traced {
				continue
			}
			o.traced = tr
			r := runOne(&workloads[i], o)
			printReport(r)
			s.Reports = append(s.Reports, r)
			ok = ok && r.correct()
		}
	}
	return s, ok
}

// compareSets prints, for every metric of every workload, both sets' values
// and their relative gap, and reports whether every end-to-end gap is within
// its bound and every exact metric is identical.
func compareSets(a, b *suite) bool {
	ok := true
	for i, ra := range a.Reports {
		rb := b.Reports[i]
		w := findWorkload(ra.Workload)
		exact := map[string]bool{}
		for _, name := range w.exact {
			exact[name] = true
		}
		fmt.Printf("== compare %s (traced=%v)\n", ra.Workload, ra.Traced)
		for _, d := range ra.defs() {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			gap := worseBy(va, vb, d.Higher)
			if gap < 0 {
				gap = worseBy(vb, va, d.Higher)
			}
			verdict := ""
			switch {
			case exact[d.Name]:
				verdict = "exact"
				if va != vb {
					verdict = "EXACT METRIC DIFFERS"
					ok = false
				}
			case !ra.Traced:
				verdict = fmt.Sprintf("bound %.0f%%", d.Bound*100)
				if gap > d.Bound {
					verdict += " EXCEEDED"
					ok = false
				}
			}
			fmt.Printf("  %-28s %14.6g %14.6g  gap %6.2f%%  %s\n", d.Name, va, vb, gap*100, verdict)
		}
	}
	return ok
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and end with the driver's JSON result line (default: every workload)")
		seed    = flag.Int64("seed", defaultSeed, "seed of every generated input: payloads, crash offsets, simulator seeds")
		seconds = flag.Float64("seconds", 15, "length of each workload's measured window")
		traced  = flag.Int("trace", 0, "1: run with outside-in tracing and report the per-layer metrics and the tracing overhead")
		sets    = flag.Int("sets", 1, "run the whole suite this many times and compare the sets against the bounds")
		jsonOut = flag.String("json", "", "write every set's full reports to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *sets < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-sets n] [-json file]")
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: *seconds, traced: *traced == 1}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		r := runOne(w, o)
		printReport(r)
		line, err := json.Marshal(r.resultLine())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !r.correct() {
			os.Exit(1)
		}
		return
	}

	ok := true
	var all []*suite
	for i := 0; i < *sets; i++ {
		if *sets > 1 {
			fmt.Printf("==== set %d of %d\n", i+1, *sets)
		}
		s, good := runSuite(o, o.traced)
		all = append(all, s)
		ok = ok && good
	}
	for i := 1; i < len(all); i++ {
		ok = compareSets(all[0], all[i]) && ok
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(map[string]any{"sets": all}, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !ok {
		fmt.Println("FAIL")
		os.Exit(1)
	}
	fmt.Println("ok")
}
