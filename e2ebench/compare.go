package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct bool              `json:"correct"`
	Metrics map[string]metric `json:"metrics"`
}

// resultSet maps workload → file name → result. A run's file is named
// <workload>.<anything>.json; files of the same name in two sets are a
// pair (same workload and seed, one run of each side).
type resultSet map[string]map[string]runResult

type claims []string

func (c *claims) String() string     { return strings.Join(*c, ",") }
func (c *claims) Set(v string) error { *c = append(*c, v); return nil }

// compareMain prints, per workload and end-to-end metric, both sides'
// median and quartiles and a verdict against the metric's bound. It
// exits 1 when a metric regressed, a run was incorrect, or a named
// claim is not shown.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "directory of the parent's run outputs")
	head := fs.String("head", "", "directory of the change's run outputs")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	var cl claims
	fs.Var(&cl, "claim", "workload/metric the change claims to improve (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "compare: -base and -head are required")
		return 2
	}
	var spec benchSpec
	raw, err := os.ReadFile(*bench)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	bs, err := loadResults(*base)
	if err == nil {
		var hs resultSet
		if hs, err = loadResults(*head); err == nil {
			return compareSets(spec, bs, hs, cl, out)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 2
}

func loadResults(dir string) (resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no *.json run outputs in %s", dir)
	}
	rs := resultSet{}
	for _, f := range files {
		name := filepath.Base(f)
		wl, _, _ := strings.Cut(name, ".")
		r, err := lastResult(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rs[wl] == nil {
			rs[wl] = map[string]runResult{}
		}
		rs[wl][name] = r
	}
	return rs, nil
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(path string) (runResult, error) {
	var r runResult
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

func compareSets(spec benchSpec, base, head resultSet, cl claims, out io.Writer) int {
	claimed := map[string]bool{}
	for _, c := range cl {
		claimed[c] = true
	}
	var wls []string
	for wl := range base {
		if _, ok := head[wl]; ok {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	code := 0
	for _, side := range []resultSet{base, head} {
		for wl, runs := range side {
			for name, r := range runs {
				if !r.Correct {
					fmt.Fprintf(out, "%s: run %s reported incorrect outputs\n", wl, name)
					code = 1
				}
			}
		}
	}
	fmt.Fprintf(out, "%-18s %-17s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "bound", "verdict")
	for _, wl := range wls {
		names := pairNames(base[wl], head[wl])
		for _, m := range spec.EndToEnd {
			var bv, hv []float64
			for _, n := range names {
				bv = append(bv, base[wl][n].Metrics[m.Name].Value)
				hv = append(hv, head[wl][n].Metrics[m.Name].Value)
			}
			key := wl + "/" + m.Name
			v := judge(bv, hv, m.Better == "higher", m.Bound, claimed[key])
			line := fmt.Sprintf("%-18s %-17s %-34s %-34s %+7.2f%% %5.1f%%  %s", wl, m.Name,
				summary(bv, m.Unit), summary(hv, m.Unit), 100*v.change, 100*m.Bound, v.verdict)
			if claimed[key] {
				line += fmt.Sprintf(" (won %d of %d pairs)", v.wins, v.pairs)
			}
			fmt.Fprintln(out, line)
			if v.verdict == "regressed" || v.verdict == "not shown" {
				code = 1
			}
			delete(claimed, key)
		}
	}
	for c := range claimed {
		fmt.Fprintf(out, "claim %s names no workload/metric present in both sets\n", c)
		code = 1
	}
	return code
}

// pairNames lists the run files present on both sides.
func pairNames(a, b map[string]runResult) []string {
	var names []string
	for n := range a {
		if _, ok := b[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func summary(xs []float64, unit string) string {
	q1, q3, _ := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", median(xs), q1, q3, unit)
}

// verdict is compare mode's reading of one metric on one workload.
type verdict struct {
	// change is how much worse (positive) or better (negative) the
	// head's median is, as a share of the base median.
	change  float64
	verdict string
	// wins counts pairs the head won outright; pairs counts all pairs.
	wins, pairs int
}

// judge applies the benchmark's rules to paired samples of one metric.
// A claimed metric is "improved" only when the head wins at least nine
// tenths of the pairs (ties count for neither side) and the medians
// differ by more than the base's interquartile distance; otherwise it
// is "not shown". Any other metric is "unresolved" when either side's
// interquartile spread exceeds the bound — unless every head run beats
// every base run — else "regressed" when the head's median is worse by
// more than the bound, else "ok".
func judge(base, head []float64, higherBetter bool, bound float64, claim bool) verdict {
	v := verdict{pairs: min(len(base), len(head))}
	if v.pairs == 0 {
		v.verdict = "no data"
		return v
	}
	better := func(h, b float64) bool {
		if higherBetter {
			return h > b
		}
		return h < b
	}
	mb, mh := median(base), median(head)
	if mb != 0 {
		v.change = (mh - mb) / math.Abs(mb)
		if higherBetter {
			v.change = -v.change
		}
	}
	for i := 0; i < v.pairs; i++ {
		if better(head[i], base[i]) {
			v.wins++
		}
	}
	bq1, bq3, _ := quartiles(base)
	if claim {
		if 10*v.wins >= 9*v.pairs && better(mh, mb) && math.Abs(mh-mb) > bq3-bq1 {
			v.verdict = "improved"
		} else {
			v.verdict = "not shown"
		}
		return v
	}
	hq1, hq3, _ := quartiles(head)
	spread := math.Max(relSpread(bq1, bq3, mb), relSpread(hq1, hq3, mh))
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		v.verdict = "ok (every run better)"
	case spread > bound:
		v.verdict = "unresolved"
	case v.change > bound:
		v.verdict = "regressed"
	default:
		v.verdict = "ok"
	}
	return v
}

func relSpread(q1, q3, med float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}
