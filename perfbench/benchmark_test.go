package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root must declare exactly the metrics
// the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []metricDef                           `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("workloads %v, benchmark runs %v", got, names)
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		want, _ := json.MarshalIndent(perLayer, "", "  ")
		t.Errorf("per_layer differs from the metrics a traced run reports:\n%s", want)
	}
}
