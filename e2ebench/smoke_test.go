package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkMetricNames reads the metric names BENCHMARK.json declares.
func benchmarkMetricNames(t *testing.T) (e2e, layers []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func metricNames(ms map[string]metric) []string {
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	w := append([]string(nil), want...)
	sort.Strings(w)
	g := metricNames(got)
	if len(g) != len(w) {
		t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, g, w)
		}
	}
}

// TestSmokeEachWorkload runs every workload at smoke size, untraced and
// traced, and checks that the output checks pass and the metrics are
// exactly the ones BENCHMARK.json declares.
func TestSmokeEachWorkload(t *testing.T) {
	e2e, layers := benchmarkMetricNames(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				res, err := run(ctx, options{workload: wl, seed: 3, seconds: 1.5, trace: trace,
					tiny: true, scratch: t.TempDir(), setupReps: 2})
				cancel()
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d notes=%v", trace, res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				if trace {
					sameNames(t, "traced", res.Metrics, layers)
				} else {
					sameNames(t, "untraced", res.Metrics, e2e)
					if res.Metrics["success_ratio"].Value != 1 || res.Metrics["latency_p50_s"].Value <= 0 {
						t.Errorf("metrics %+v", res.Metrics)
					}
				}
			}
		})
	}
}

// TestSmokeWrongAssignmentFails corrupts one daemon answer per workload
// and expects the output checks to mark the run incorrect.
func TestSmokeWrongAssignmentFails(t *testing.T) {
	for _, wl := range workloadNames {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		res, err := run(ctx, options{workload: wl, seed: 3, seconds: 0.3, tiny: true,
			scratch: t.TempDir(), setupReps: 1, injectMismatch: true})
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Correct {
			t.Errorf("%s: a corrupted assignment passed the output checks", wl)
		}
	}
}
