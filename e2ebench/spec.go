package main

import (
	_ "embed"
	"encoding/json"
)

// specJSON records the reasoning behind the benchmark — why each
// workload exists, which layers it loads and bypasses, the predictions
// it exists to test — and the two thresholds the run enforces: the
// per-workload avg_f floor and the layer-reconciliation tolerance.
//
//go:embed spec.json
var specJSON []byte

type workloadSpec struct {
	AvgFFloor float64 `json:"avg_f_floor"`
}

var spec struct {
	ReconcileTolerancePct float64                 `json:"reconcile_tolerance_pct"`
	Workloads             map[string]workloadSpec `json:"workloads"`
}

func init() {
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		panic("spec.json: " + err.Error())
	}
}
