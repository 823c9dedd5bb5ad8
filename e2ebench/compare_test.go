package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

var steady = []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}

func TestJudgeWithinBoundIsOK(t *testing.T) {
	if v := judge(steady, scaled(steady, 1.03), false, 0.1, false); v.verdict != "ok" {
		t.Errorf("3%% slower under a 10%% bound: %+v", v)
	}
}

func TestJudgeRegression(t *testing.T) {
	v := judge(steady, scaled(steady, 1.2), false, 0.1, false)
	if v.verdict != "regressed" || math.Abs(v.change-0.2) > 1e-9 {
		t.Errorf("20%% slower under a 10%% bound: %+v", v)
	}
	// Higher-is-better metrics regress downwards.
	if v := judge(steady, scaled(steady, 0.8), true, 0.1, false); v.verdict != "regressed" {
		t.Errorf("throughput down 20%%: %+v", v)
	}
}

func TestJudgeUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0}
	if v := judge(steady, noisy, false, 0.1, false); v.verdict != "unresolved" {
		t.Errorf("head spread beyond the bound: %+v", v)
	}
	// Unless every head run beats every base run.
	if v := judge(noisy, scaled(noisy, 0.1), false, 0.1, false); !strings.HasPrefix(v.verdict, "ok") {
		t.Errorf("every run better: %+v", v)
	}
}

func TestJudgeClaimNeedsNineTenthsAndMoreThanSpread(t *testing.T) {
	faster := scaled(steady, 0.9)
	if v := judge(steady, faster, false, 0.1, true); v.verdict != "improved" || v.wins != 10 || v.pairs != 10 {
		t.Errorf("10%% faster on every pair: %+v", v)
	}
	// Eight wins of ten is not enough.
	mixed := append([]float64(nil), faster...)
	mixed[0], mixed[1] = 2, 2
	if v := judge(steady, mixed, false, 0.1, true); v.verdict != "not shown" || v.wins != 8 {
		t.Errorf("8 of 10 pairs: %+v", v)
	}
	// Winning every pair by less than the base's own spread is not a gain.
	tiny := scaled(steady, 0.999)
	if v := judge(steady, tiny, false, 0.1, true); v.verdict != "not shown" {
		t.Errorf("a win inside the base spread: %+v", v)
	}
}

func writeRuns(t *testing.T, dir, wl string, vals []float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		b, _ := json.Marshal(map[string]any{"correct": true, "attempted": 1, "failed": 0,
			"metrics": map[string]metric{"latency_p50_s": {v, "s"}}})
		path := filepath.Join(dir, fmt.Sprintf("%s.%d.json", wl, i))
		if err := os.WriteFile(path, append([]byte("# a comment line\n"), b...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareMainReportsAndExits(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"latency_p50_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644)
	writeRuns(t, filepath.Join(dir, "base"), "w", steady)
	writeRuns(t, filepath.Join(dir, "same"), "w", scaled(steady, 1.01))
	writeRuns(t, filepath.Join(dir, "slow"), "w", scaled(steady, 1.5))
	writeRuns(t, filepath.Join(dir, "fast"), "w", scaled(steady, 0.8))

	var out bytes.Buffer
	if code := compareMain([]string{"-bench", bench, "-base", filepath.Join(dir, "base"), "-head", filepath.Join(dir, "same")}, &out); code != 0 {
		t.Errorf("same code: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-bench", bench, "-base", filepath.Join(dir, "base"), "-head", filepath.Join(dir, "slow")}, &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("slower code: exit %d\n%s", code, out.String())
	}
	out.Reset()
	code := compareMain([]string{"-bench", bench, "-base", filepath.Join(dir, "base"), "-head", filepath.Join(dir, "fast"), "-claim", "w/latency_p50_s"}, &out)
	if code != 0 || !strings.Contains(out.String(), "improved (won 10 of 10 pairs)") {
		t.Errorf("claimed gain: exit %d\n%s", code, out.String())
	}
}
