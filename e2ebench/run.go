package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"symcluster"
	"symcluster/internal/eval"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks the inputs to smoke-test size (tests only).
	tiny bool
	// scratch is the directory under which the run keeps its daemon data
	// and spill files; it is removed when the run ends.
	scratch string
	// setupReps is how many times the untraced run sets up; it reports
	// the median and keeps the last.
	setupReps int
	// injectMismatch corrupts one daemon assignment before the output
	// checks, to show that they fail the run.
	injectMismatch bool
}

// opLimit is the time a single op may take; a failed op counts as
// taking this long in the latency figures.
const opLimit = 60 * time.Second

// op is one completed (or failed) closed-loop operation.
type op struct {
	idx       int
	cfg       int
	traced    bool
	wall      float64
	err       error
	assign    []int
	k         int
	cacheHit  bool
	queueWait float64
	respBytes int
}

// result is everything one run measured.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	Notes     []string
	Detail    map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run end to end: set-up, the timed closed
// loop, the output checks and, with tracing, the layer probes.
func run(ctx context.Context, o options) (*result, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	reps := 1
	if !o.trace && o.setupReps > 1 {
		reps = o.setupReps
	}
	var setups []float64
	var w *workload
	var d *daemon
	for r := 0; r < reps; r++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("closing set-up daemon: %w", err)
			}
		}
		start := time.Now()
		w, d, err = setUp(ctx, o, filepath.Join(dir, fmt.Sprintf("setup%d", r)))
		if err != nil {
			if d != nil {
				d.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The traced run reads the daemon's counters across the loop.
	var before, after map[string]float64
	if o.trace {
		if before, err = d.scrape(ctx, scrapedCounters...); err != nil {
			d.close()
			return nil, err
		}
	}
	rt0 := readRuntime()
	ops, elapsed, walWritten := loop(ctx, d, w, time.Duration(o.seconds*float64(time.Second)), o.trace, before["symclusterd_wal_bytes"])
	rt1 := readRuntime()
	rssMB := peakRSSMB()
	if o.trace {
		after, err = d.scrape(ctx, scrapedCounters...)
	}
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: len(ops), Detail: map[string]any{}}
	if o.injectMismatch {
		injectMismatch(ops)
	}
	byCfg, f, err := checkOutputs(ctx, w, ops, res)
	if err != nil {
		return nil, err
	}
	floor := spec.Workloads[w.name].AvgFFloor
	if f < floor {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("avg_f %.4f below the workload floor %.4f", f, floor))
	}

	if !o.trace {
		res.Metrics = endToEnd(ops, elapsed, median(setups), rssMB, f)
		res.Detail["latency_tail"] = tailLatency(latencies(ops))
		res.Detail["setup_s_reps"] = setups
		return res, nil
	}
	lm, err := perLayer(ctx, w, ops, byCfg, dir, before, after, rt0, rt1, walWritten, res)
	if err != nil {
		return nil, err
	}
	res.Metrics = lm
	return res, nil
}

// setUp generates the inputs, boots a fresh daemon under dir, registers
// the graphs and warms the caches: everything a run does before its
// clock starts.
func setUp(ctx context.Context, o options, dir string) (*workload, *daemon, error) {
	w, err := buildWorkload(o.workload, o.seed, o.tiny)
	if err != nil {
		return nil, nil, err
	}
	cfg := w.cfg
	cfg.SpillDir = filepath.Join(dir, "spill")
	if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return nil, nil, err
	}
	if w.durable {
		cfg.DataDir = filepath.Join(dir, "data")
	}
	d, err := bootDaemon(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, in := range w.inputs {
		if w.upload {
			ur, err := d.upload(ctx, in.edges, uploadChunk)
			if err != nil {
				return nil, d, err
			}
			in.id, in.spillRuns = ur.Graph.ID, ur.SpillRuns
			continue
		}
		gi, err := d.registerGraph(ctx, in.edges)
		if err != nil {
			return nil, d, err
		}
		in.id = gi.ID
	}
	for _, r := range w.warm {
		if o := doOp(ctx, d, w, r, -1, -1, false); o.err != nil {
			return nil, d, fmt.Errorf("warm-up %v: %w", r, o.err)
		}
	}
	return w, d, nil
}

// doOp runs one clustering request to completion. idx and cfg place
// the op in the loop and its request in the cycle.
func doOp(ctx context.Context, d *daemon, w *workload, req *request, idx, cfg int, traced bool) op {
	ctx, cancel := context.WithTimeout(ctx, opLimit)
	defer cancel()
	o := op{idx: idx, cfg: cfg, traced: traced}
	start := time.Now()
	resp, n, err := d.cluster(ctx, req.wire(req.in.id, w.async))
	o.respBytes = n
	if err != nil {
		o.err = err
		o.wall = opLimit.Seconds()
		return o
	}
	o.wall = time.Since(start).Seconds()
	o.assign, o.k, o.cacheHit = resp.Assign, resp.K, resp.CacheHit
	if resp.Stats != nil {
		o.queueWait = resp.Stats.QueueWaitMillis / 1000
	}
	return o
}

// loop drives the closed loop: w.clients clients, each sending its next
// op when the previous one returns, until dur has passed. Op indices
// come from one shared counter, so the completed ops are exactly
// 0..len-1 and cover whole cycles deterministically. With trace set,
// every other cycle is traced, and the WAL size gauge is sampled after
// every op: the sum of its increases is the bytes journaled (bytes
// appended just before a compaction are missed).
func loop(ctx context.Context, d *daemon, w *workload, dur time.Duration, trace bool, wal0 float64) ([]op, float64, float64) {
	var (
		next       atomic.Int64
		mu         sync.Mutex
		ops        []op
		wg         sync.WaitGroup
		walLast    = wal0
		walWritten float64
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				cfg := i % len(w.cycle)
				traced := trace && (i/len(w.cycle))%2 == 1
				o := doOp(ctx, d, w, w.cycle[cfg], i, cfg, traced)
				mu.Lock()
				ops = append(ops, o)
				if trace {
					if m, err := d.scrape(ctx, "symclusterd_wal_bytes"); err == nil {
						v := m["symclusterd_wal_bytes"]
						walWritten += max(0, v-walLast)
						walLast = v
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	sort.Slice(ops, func(i, j int) bool { return ops[i].idx < ops[j].idx })
	return ops, elapsed, walWritten
}

// injectMismatch flips one label of the first successful op's
// assignment, standing in for a daemon that returns a wrong answer.
func injectMismatch(ops []op) {
	for i := range ops {
		if ops[i].err == nil && len(ops[i].assign) > 0 {
			a := slices.Clone(ops[i].assign)
			a[0] = (a[0] + 1) % max(ops[i].k, 2)
			ops[i].assign = a
			return
		}
	}
}

// checkOutputs compares, outside the timed region, every op's
// assignment against symcluster.ClusterDirectedCtx run on the same
// input bytes and options, and scores the outputs: against planted
// truth where the generator has one, else against the reference
// assignment (1 exactly when they agree). It returns the first
// assignment seen per cycle entry and the mean F over cycle entries.
func checkOutputs(ctx context.Context, w *workload, ops []op, res *result) (map[int][]int, float64, error) {
	byCfg := map[int][]int{}
	for _, o := range ops {
		if o.err != nil {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("op %d (%v) failed: %v", o.idx, w.cycle[o.cfg], o.err))
			continue
		}
		if _, ok := byCfg[o.cfg]; !ok {
			byCfg[o.cfg] = o.assign
		}
	}
	cfgs := make([]int, 0, len(byCfg))
	for c := range byCfg {
		cfgs = append(cfgs, c)
	}
	sort.Ints(cfgs)

	refs := make([][]int, len(w.cycle))
	errs := make([]error, len(w.cycle))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, c := range cfgs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			refs[c], errs[c] = reference(ctx, w.cycle[c])
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, fmt.Errorf("reference run: %w", err)
	}
	mismatched := map[int]bool{}
	for _, o := range ops {
		if o.err != nil || mismatched[o.cfg] {
			continue
		}
		if !slices.Equal(o.assign, refs[o.cfg]) {
			mismatched[o.cfg] = true
			res.Correct = false
			res.Notes = append(res.Notes, fmt.Sprintf("op %d (%v): daemon assignment differs from symcluster.ClusterDirectedCtx", o.idx, w.cycle[o.cfg]))
		}
	}
	var fs []float64
	for _, c := range cfgs {
		truth := w.cycle[c].in.truth
		if truth == nil {
			truth = truthOf(refs[c])
		}
		f, err := avgF(byCfg[c], truth)
		if err != nil {
			return nil, 0, err
		}
		fs = append(fs, f)
	}
	return byCfg, mean(fs), nil
}

// reference runs the library pipeline in-process on the input's parsed
// edge list with the request's options.
func reference(ctx context.Context, r *request) ([]int, error) {
	m, err := symcluster.ParseMethod(r.method)
	if err != nil {
		return nil, err
	}
	a, err := symcluster.ParseAlgorithm(r.algo)
	if err != nil {
		return nil, err
	}
	g, err := r.in.graph()
	if err != nil {
		return nil, err
	}
	c, err := symcluster.ClusterDirectedCtx(ctx, g, m, r.symOptions(), a, r.clusterOptions())
	if err != nil {
		return nil, err
	}
	return c.Assign, nil
}

// truthOf wraps an assignment as single-category ground truth.
func truthOf(assign []int) *eval.GroundTruth {
	cats := make([][]int, len(assign))
	for i, c := range assign {
		cats[i] = []int{c}
	}
	t, _ := eval.NewGroundTruth(cats)
	return t
}

// avgF is the paper's micro-averaged best-match F of assign against
// truth. Nodes the edge list never mentions (isolated highest ids) are
// absent from the daemon's graph; they are scored as singletons.
func avgF(assign []int, truth *eval.GroundTruth) (float64, error) {
	a := assign
	if n := len(truth.Categories); len(a) < n {
		a = slices.Clone(assign)
		next := 0
		for _, c := range assign {
			next = max(next, c+1)
		}
		for len(a) < n {
			a = append(a, next)
			next++
		}
	}
	r, err := eval.Evaluate(a, &eval.GroundTruth{Categories: truth.Categories[:len(a)], K: truth.K})
	if err != nil {
		return 0, err
	}
	return r.AvgF, nil
}

func latencies(ops []op) []float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = o.wall
	}
	return xs
}

// endToEnd computes the untraced run's user-visible metrics.
func endToEnd(ops []op, elapsed, setup, rssMB, f float64) map[string]metric {
	ok := 0
	for _, o := range ops {
		if o.err == nil {
			ok++
		}
	}
	lat := latencies(ops)
	return map[string]metric{
		"latency_p50_s":    {median(lat), "s"},
		"latency_tail_s":   {tailLatency(lat).Value, "s"},
		"throughput_ops_s": {float64(ok) / elapsed, "1/s"},
		"success_ratio":    {float64(ok) / float64(max(len(ops), 1)), "ratio"},
		"setup_s":          {setup, "s"},
		"rss_peak_mb":      {rssMB, "MiB"},
		"avg_f":            {f, "F"},
	}
}

// runtimeSample is a snapshot of the process-wide runtime counters.
type runtimeSample struct {
	alloc   uint64
	gcPause uint64
	cpu     time.Duration
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{alloc: ms.TotalAlloc, gcPause: ms.PauseTotalNs, cpu: cpuTime()}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far, in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
