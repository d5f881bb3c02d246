package main

import (
	"testing"
)

// BENCHMARK.json is the contract the acceptance driver reads; the code
// must report exactly the names it lists.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(roleMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code reports %d", len(bf.EndToEnd), len(roleMetrics))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		d, ok := e2eByName(roleMetrics[i])
		if !ok || !d.role {
			t.Fatalf("role %s is not an end-to-end metric the code marks as the driver's", roleMetrics[i])
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d is %s [%s, %s] in BENCHMARK.json and %s [%s, %s] in the code",
				i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) must be an end-to-end metric")
	}
	if len(bf.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code reports %d", len(bf.PerLayer), len(layerDefs))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layerDefs[i].name || m.Unit != layerDefs[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the code",
				i, m.Name, m.Unit, layerDefs[i].name, layerDefs[i].unit)
		}
	}
}
