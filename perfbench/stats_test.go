package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestPercentileRule pins the reporting rule: a percentile needs at least
// ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {200, 95, true}, {199, 95, false},
		{100, 90, true}, {99, 90, false}, {40, 75, true}, {39, 75, false},
	} {
		if got := percentileOK(c.n, c.p); got != c.want {
			t.Errorf("percentileOK(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 75); got != 4 {
		t.Errorf("p75 = %g, want 4", got)
	}
	if got := percentile([]float64{0, 10}, 90); got != 9 {
		t.Errorf("p90 of {0,10} = %g, want 9", got)
	}
}

// TestMetricsMatchBenchmarkJSON: the result lines carry exactly the
// metrics, with the units, that BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []figure, want []struct{ Name, Unit string }) {
		t.Helper()
		units := map[string]string{}
		for _, f := range got {
			units[f.name] = f.unit
		}
		if len(units) != len(got) || len(got) != len(want) {
			t.Errorf("%s: %d metrics (%d names), BENCHMARK.json declares %d", kind, len(got), len(units), len(want))
		}
		for _, m := range want {
			if units[m.Name] != m.Unit {
				t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", kind, m.Name, units[m.Name], m.Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics(&result{steps: []float64{1}, rates: []float64{1}}, []float64{1}, 90), spec.EndToEnd)
	check("per_layer", layerMetrics(&result{}, newTracer(), nil, 0, time.Second, 0, 0), spec.PerLayer)
}
