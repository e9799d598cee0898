package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json and the metric tables the runs print from must agree:
// a metric the file names and a run omits (or the reverse) breaks every
// comparison made with the benchmark.
func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, a timed run prints %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, e := range bj.EndToEnd {
		m := endToEnd[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, e, m)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, a traced run prints %d", len(bj.PerLayer), len(perLayer))
	}
	for i, e := range bj.PerLayer {
		m := perLayer[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, e, m)
		}
	}
}
