package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestManifestMatchesMetrics keeps BENCHMARK.json at the repository root
// in step with what the program reports: the same end-to-end and
// per-layer names, with the same units.
func TestManifestMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &manifest); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want []string) {
		var names []string
		for _, m := range listed {
			names = append(names, m.Name)
			if metricUnits[m.Name] != m.Unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q reported", kind, m.Name, m.Unit, metricUnits[m.Name])
			}
		}
		slices.Sort(names)
		want = slices.Sorted(slices.Values(want))
		if !slices.Equal(names, want) {
			t.Errorf("%s metrics in BENCHMARK.json = %v, reported = %v", kind, names, want)
		}
	}
	check("end-to-end", manifest.EndToEnd, endToEndMetrics)
	check("per-layer", manifest.PerLayer, perLayerMetrics())
}
