// Command e2ebench is the repository benchmark: it boots symclusterd
// in-process behind a loopback listener, drives one named workload as a
// closed loop for a fixed time, checks every answer against the library
// pipeline, and prints the workload's metrics as one JSON line.
//
//	e2ebench --workload partition-mix --seed 1 --seconds 20 --trace 0
//	e2ebench compare -base DIR -head DIR [-claim workload/metric]
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// they are the per-layer ones, from a run that also times calls into
// each layer's public function. See README.md for the workloads and the
// result format, and spec.json for the reasoning behind them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// setupReps is how many times an untraced run sets up; setup_s is the
// median, so work moved into set-up shows without one slow boot
// deciding it.
const setupReps = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	var trace int
	fs := flag.NewFlagSet("e2ebench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: mcl-async or partition-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed loop in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.StringVar(&o.scratch, "scratch", ".bench_build/e2ebench-scratch", "directory for daemon data and spill files")
	fs.BoolVar(&o.injectMismatch, "inject-mismatch", false, "corrupt one daemon answer to show the output checks fail the run")
	fs.Parse(os.Args[1:])
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.setupReps = setupReps

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	report(os.Stdout, o, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints one human-readable line per metric, the run's detail
// and notes, and, last, the result object.
func report(out *os.File, o options, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "# %s seed=%d seconds=%g trace=%v ops=%d failed=%d\n", o.workload, o.seed, o.seconds, o.trace, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(out, "# %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(out, "# note:", n)
	}
	if b, err := json.Marshal(res.Detail); err == nil {
		fmt.Fprintf(out, "# detail: %s\n", b)
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintln(out, string(b))
}
