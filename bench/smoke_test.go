package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmokeEveryWorkload runs every workload once at smoke-test size, plain
// and traced, and checks the result the driver would read: every metric
// BENCHMARK.json names for that mode present exactly once, finite, the
// end-to-end ones non-zero, and every correctness check passed.
func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			name := w.name + "/plain"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				r := runOne(w, runOpts{seed: 7, seconds: 0.3, traced: traced, quick: true})
				for _, p := range r.Problems {
					t.Errorf("check failed: %s", p)
				}
				if r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("failed %d of %d operations", r.Failed, r.Attempted)
				}
				line, err := json.Marshal(r.resultLine())
				if err != nil {
					t.Fatal(err)
				}
				var got resultLine
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(got.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := got.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", d.Name)
					case !isFinite(v.Value) || v.Unit != d.Unit:
						t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, v.Value, v.Unit, d.Unit)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps the manifest at the repository root
// and the program's metric and workload tables from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, program has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("manifest lists %d %s metrics, program has %d", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			better := "lower"
			if d.Higher {
				better = "higher"
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != better {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s metric %s: bound must match the program's %v and lie in (0, 0.25]", kind, d.Name, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s metric %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd, true)
	check("per_layer", manifest.PerLayer, perLayer, false)
}
