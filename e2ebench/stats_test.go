package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestTailLatencyKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{200, 190, 95},
		{1000, 990, 99},
	} {
		got := tailLatency(seq(tc.n))
		if got.Value != tc.value || math.Abs(got.Percentile-tc.pct) > 1e-9 || got.Samples != tc.n || got.Beyond != minBeyond {
			t.Errorf("n=%d: got %+v, want value %v at p%.3f with %d beyond", tc.n, got, tc.value, tc.pct, minBeyond)
		}
		// No higher rank qualifies: the next one up has only nine
		// samples beyond it.
		s := sorted(seq(tc.n))
		above := 0
		for _, x := range s {
			if x > got.Value {
				above++
			}
		}
		if above != minBeyond {
			t.Errorf("n=%d: %d samples above the tail value, want exactly %d", tc.n, above, minBeyond)
		}
	}
}

func TestTailLatencyFewSamplesFallsBackToMedian(t *testing.T) {
	got := tailLatency(seq(10))
	if got.Value != 5.5 || got.Percentile != 50 || got.Beyond >= minBeyond {
		t.Errorf("got %+v, want the median flagged by Beyond < %d", got, minBeyond)
	}
	if got := tailLatency(nil); got.Samples != 0 {
		t.Errorf("empty sample: got %+v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{0.8, 0.81, 0.79, 0.83, 0.8, 0.82, 0.78, 0.84, 0.8, 0.81}, 0.7975, 0.8225},
	} {
		q1, q3, ok := quartiles(tc.xs)
		if !ok || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}
