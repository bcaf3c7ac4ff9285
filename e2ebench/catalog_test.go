package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metric and workload names the
// runner reports in step with BENCHMARK.json at the repository root.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: runner has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: runner %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the runner %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the runner", w.Name)
		}
	}
}

// TestPinsParse checks that every workload's pins decode.
func TestPinsParse(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for wl, bySeed := range p.Workloads {
		if workloads[wl] == nil {
			t.Errorf("pins for unknown workload %q", wl)
		}
		for _, seed := range []int64{p.Seeds.Default, p.Seeds.HeldOut} {
			if _, ok := bySeed[fmt.Sprint(seed)]; !ok {
				t.Errorf("%s: no pins for seed %d", wl, seed)
			}
		}
	}
}
