package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestManifestMetrics keeps the metrics every workload reports in step
// with BENCHMARK.json: the same names and units, in the same order.
func TestManifestMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	specs := func(ms []struct{ Name, Unit string }) []metricSpec {
		var out []metricSpec
		for _, x := range ms {
			out = append(out, metricSpec{x.Name, x.Unit})
		}
		return out
	}
	if got := specs(m.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the benchmark reports %v", got, endToEnd)
	}
	if got := specs(m.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, the benchmark reports %v", got, perLayer)
	}
}

// TestReportRefusesMissingMetric: a result that lacks a metric of the
// manifest, or has one too many, prints nothing.
func TestReportRefusesMissingMetric(t *testing.T) {
	want := []metricSpec{{"a_ms", "ms"}, {"b", "count"}}
	var out strings.Builder
	full := &result{attempted: 1, metrics: []metric{{"a_ms", 1.5, "ms", 3}, {"b", 0, "count", 0}}}
	if err := report(&out, "w", full, want); err != nil {
		t.Fatalf("complete result refused: %v", err)
	}
	if !strings.HasSuffix(out.String(), `{"correct":true,"attempted":1,"failed":0,"metrics":{"a_ms":{"value":1.5,"unit":"ms"},"b":{"value":0,"unit":"count"}}}`+"\n") {
		t.Errorf("result line missing from:\n%s", out.String())
	}
	for _, ms := range [][]metric{
		{{"a_ms", 1.5, "ms", 3}},
		{{"a_ms", 1.5, "s", 3}, {"b", 0, "count", 0}},
		{{"a_ms", 1.5, "ms", 3}, {"b", 0, "count", 0}, {"c", 1, "count", 0}},
	} {
		out.Reset()
		if err := report(&out, "w", &result{attempted: 1, metrics: ms}, want); err == nil || out.Len() != 0 {
			t.Errorf("report(%v) = %v, printed %q; want an error and nothing printed", ms, err, out.String())
		}
	}
}
