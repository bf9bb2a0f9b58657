package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// Every workload runs end to end at a tiny size, traced and untraced,
// checks all its outputs, and prints exactly the declared metrics.
func TestSmokeEveryWorkloadTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{seed: 3, budget: 2 * time.Second, traced: traced, setups: 2, tiny: true}
				var stdout, report bytes.Buffer
				code, err := execute(context.Background(), w, cfg, t.TempDir(), &stdout, &report)
				if code != 0 || err != nil {
					t.Fatalf("exit %d, err %v\n%s", code, err, report.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, report.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, present %v, want unit %s", d.name, m, ok, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// The same seed gives the same inputs and so the same bill.
func TestSameSeedSameBill(t *testing.T) {
	cfg := config{seed: 9, budget: time.Second, setups: 1, tiny: true}
	a, err := sparseCold(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sparseCold(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.msgs != b.msgs || a.rounds != b.rounds {
		t.Errorf("bills %d/%d and %d/%d under one seed", a.msgs, a.rounds, b.msgs, b.rounds)
	}
}

// BENCHMARK.json declares exactly the program's workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i := range min(len(spec.Workloads), len(workloads)) {
		if spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in program", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in program", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in program", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
