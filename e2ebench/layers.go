package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"symcluster"
	"symcluster/internal/core"
	"symcluster/internal/csr"
	"symcluster/internal/graclus"
	"symcluster/internal/matrix"
	"symcluster/internal/mcl"
	"symcluster/internal/metis"
	"symcluster/internal/multilevel"
	"symcluster/internal/pipeline"
)

// scrapedCounters are the /metrics series whose deltas across the timed
// loop give the cache and job-store layer figures.
var scrapedCounters = []string{
	"symclusterd_cache_hits_total",
	"symclusterd_cache_misses_total",
	"symclusterd_cache_evictions_total",
	"symclusterd_wal_appends_total",
	"symclusterd_wal_bytes",
	"symclusterd_wal_compactions_total",
	"symclusterd_checkpoints_total",
}

// symProbe is one timed core.SymmetrizeCtx call and the work it did.
type symProbe struct {
	secs   float64
	flops  float64
	nnzOut float64
	bytes  float64
	u      *symcluster.UndirectedGraph
}

// clusterProbe is one timed call into the request's clusterer, plus a
// timed multilevel.CoarsenCtx call with the coarsening options that
// clusterer uses (zero when it does not coarsen).
type clusterProbe struct {
	secs     float64
	coarsenS float64
	levels   float64
	clusters float64
	assign   []int
}

// ingestProbe is one timed csr.Ingester Append/Finalize plus csr.Open
// pass over an input the workload uploads at set-up.
type ingestProbe struct {
	secs, mbPerS, spillRuns float64
}

// csrBytes is the in-memory size of an n-row CSR with nnz entries.
func csrBytes(n, nnz int) float64 { return float64((n+1)*8 + nnz*(4+8)) }

func probeSymmetrize(ctx context.Context, r *request) (*symProbe, error) {
	m, err := symcluster.ParseMethod(r.method)
	if err != nil {
		return nil, err
	}
	g, err := r.in.graph()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	u, err := core.SymmetrizeCtx(ctx, g, m, r.symOptions())
	if err != nil {
		return nil, err
	}
	p := &symProbe{secs: time.Since(start).Seconds(), nnzOut: float64(u.Adj.NNZ()), u: u}
	// The product methods multiply A by its transpose both ways; their
	// SpGEMM flop counts are the degree-profile sums the admission model
	// uses. A+Aᵀ and the random-walk method form no product.
	if r.method == "dd" || r.method == "bib" {
		gs := pipeline.StatsFor(g)
		p.flops = float64(gs.CouplingFlops + gs.CocitFlops)
	}
	// Bytes moved: A and Aᵀ read, the symmetrized CSR written.
	p.bytes = 2*csrBytes(g.N(), g.M()) + csrBytes(u.N(), u.Adj.NNZ())
	return p, nil
}

func probeCluster(ctx context.Context, r *request, u *symcluster.UndirectedGraph) (*clusterProbe, error) {
	adj := u.Adj
	p := &clusterProbe{}
	var copt *multilevel.Options
	start := time.Now()
	switch r.algo {
	case "mcl":
		// The options the pipeline's MLR-MCL entry passes.
		ml := u.N() > 5000
		res, err := mcl.ClusterCtx(ctx, adj, mcl.Options{Inflation: r.inflation, Multilevel: ml,
			MaxIter: 40, MaxPerColumn: 30, ConvergenceTol: 1e-4, Seed: r.seed})
		if err != nil {
			return nil, err
		}
		p.assign, p.clusters = res.Assign, float64(res.K)
		if ml && adj.Rows > 1000 {
			copt = &multilevel.Options{MinNodes: 1000, Seed: r.seed}
		}
	case "metis":
		res, err := metis.PartitionCtx(ctx, adj, r.k, metis.Options{Seed: r.seed})
		if err != nil {
			return nil, err
		}
		p.assign, p.clusters = res.Assign, float64(res.K)
		copt = &multilevel.Options{MinNodes: 64, Seed: rand.New(rand.NewSource(r.seed)).Int63()}
	case "graclus":
		res, err := graclus.ClusterCtx(ctx, adj, r.k, graclus.Options{Seed: r.seed})
		if err != nil {
			return nil, err
		}
		p.assign, p.clusters = res.Assign, float64(res.K)
		copt = &multilevel.Options{MinNodes: max(256, 4*r.k), Seed: rand.New(rand.NewSource(r.seed)).Int63()}
	default:
		return nil, fmt.Errorf("no layer probe for algorithm %q", r.algo)
	}
	p.secs = time.Since(start).Seconds()
	if copt != nil {
		start = time.Now()
		h, err := multilevel.CoarsenCtx(ctx, adj, *copt)
		if err != nil {
			return nil, err
		}
		p.coarsenS = time.Since(start).Seconds()
		p.levels = float64(h.Depth())
	}
	return p, nil
}

// probeExpand times one expansion-shaped product M·M of the row-
// stochastic, self-looped symmetrized graph, kept to the top 50 entries
// per row as MCL's expansion is, and counts its multiply-adds.
func probeExpand(ctx context.Context, u *symcluster.UndirectedGraph) (secs, flops float64, err error) {
	n := u.N()
	m := matrix.Add(u.Adj, matrix.Identity(n), 1, 1).NormalizeRows()
	for i := 0; i < n; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			flops += float64(m.RowNNZ(int(c)))
		}
	}
	var times []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		if _, err := matrix.MulPrunedTopKCtx(ctx, m, m, 1e-4, 50); err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), flops, nil
}

func probeIngest(ctx context.Context, in *input, dir string) (*ingestProbe, error) {
	start := time.Now()
	ing, err := csr.NewIngester(dir, ingestMemBytes)
	if err != nil {
		return nil, err
	}
	for off := 0; off < len(in.edges); off += uploadChunk {
		if err := ing.Append(in.edges[off:min(off+uploadChunk, len(in.edges))]); err != nil {
			ing.Abort()
			return nil, err
		}
	}
	info, err := ing.Finalize(ctx, filepath.Join(dir, "probe.csr"))
	if err != nil {
		return nil, err
	}
	mp, err := csr.Open(ctx, filepath.Join(dir, "probe.csr"))
	if err != nil {
		return nil, err
	}
	secs := time.Since(start).Seconds()
	if err := mp.Close(); err != nil {
		return nil, err
	}
	return &ingestProbe{secs: secs, mbPerS: float64(len(in.edges)) / 1e6 / secs, spillRuns: float64(info.SpillRuns)}, nil
}

// perLayer computes the traced run's per-layer metrics. Layer times
// come from the benchmark's own timed calls into each layer's public
// function on the op's input (one call per distinct configuration,
// after the loop, with nothing else running); counts come from those
// calls, from /metrics deltas across the loop and from the runtime.
// Each traced op is attributed its queue wait (from the daemon's
// stats), its symmetrization when the daemon missed the cache, and its
// clusterer; whatever of the op's wall time that leaves is
// server.unattributed_s. Ingest and symmetrization run at set-up, so
// the ingest and core figures are per uploaded input and per distinct
// symmetrization.
func perLayer(ctx context.Context, w *workload, ops []op, byCfg map[int][]int, dir string,
	before, after map[string]float64, rt0, rt1 runtimeSample, walWritten float64, res *result) (map[string]metric, error) {
	syms := map[string]*symProbe{}
	cls := map[int]*clusterProbe{}
	for c := range byCfg {
		r := w.cycle[c]
		sp, ok := syms[r.symKey()]
		if !ok {
			var err error
			if sp, err = probeSymmetrize(ctx, r); err != nil {
				return nil, fmt.Errorf("probing core on %v: %w", r, err)
			}
			syms[r.symKey()] = sp
		}
		cp, err := probeCluster(ctx, r, sp.u)
		if err != nil {
			return nil, fmt.Errorf("probing %s on %v: %w", r.algo, r, err)
		}
		if !slices.Equal(cp.assign, byCfg[c]) {
			res.Correct = false
			res.Notes = append(res.Notes, fmt.Sprintf("%s probe on %v disagrees with the daemon: the probe does not time the op's work", r.algo, r))
		}
		cls[c] = cp
	}
	var ings []*ingestProbe
	if w.upload {
		for _, in := range w.inputs {
			ip, err := probeIngest(ctx, in, dir)
			if err != nil {
				return nil, fmt.Errorf("probing ingest of %s: %w", in.name, err)
			}
			if ip.spillRuns != float64(in.spillRuns) {
				res.Correct = false
				res.Notes = append(res.Notes, fmt.Sprintf("the upload of %s spilled %d runs, the ingest probe %v", in.name, in.spillRuns, ip.spillRuns))
			}
			ings = append(ings, ip)
		}
	}
	var expS, expFlops float64
	if sp := syms[w.cycle[0].symKey()]; sp != nil {
		var err error
		if expS, expFlops, err = probeExpand(ctx, sp.u); err != nil {
			return nil, fmt.Errorf("probing matrix expansion: %w", err)
		}
	}

	// Per traced op: layer times, and the exact counts over whole cycles.
	n := len(ops)
	whole := n / len(w.cycle)
	var (
		wall, queue, resp, symS, coarsen, mclS, metisS, graclusS, unattr []float64
		levels, clusters, selfCluster                                    []float64
	)
	for _, o := range ops {
		if !o.traced || o.err != nil {
			continue
		}
		r := w.cycle[o.cfg]
		sp, cp := syms[r.symKey()], cls[o.cfg]
		var sym float64
		if !o.cacheHit {
			sym = sp.secs
		}
		var m, me, g float64
		switch r.algo {
		case "mcl":
			m = cp.secs
		case "metis":
			me = cp.secs
		case "graclus":
			g = cp.secs
		}
		wall = append(wall, o.wall)
		queue = append(queue, o.queueWait)
		resp = append(resp, float64(o.respBytes))
		symS = append(symS, sym)
		coarsen = append(coarsen, cp.coarsenS)
		selfCluster = append(selfCluster, cp.secs-cp.coarsenS)
		mclS, metisS, graclusS = append(mclS, m), append(metisS, me), append(graclusS, g)
		unattr = append(unattr, o.wall-(o.queueWait+sym+cp.secs))
		if o.idx/len(w.cycle) < whole {
			levels = append(levels, cp.levels)
			var k float64
			if r.algo == "mcl" {
				k = cp.clusters
			}
			clusters = append(clusters, k)
		}
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("no traced op completed: run longer than two cycles of %d ops", len(w.cycle))
	}

	// Reconciliation: self-times (the clusterer's own time is its probe
	// minus the coarsening nested in it) plus the unattributed remainder
	// make up the traced end-to-end time. The remainder is what the
	// measured layers do not explain; a negative one means the layers
	// over-explain the op, which the tolerance bounds.
	e2e := mean(wall)
	self := map[string]float64{
		"server.queue_wait":   mean(queue),
		"core":                mean(symS),
		"multilevel":          mean(coarsen),
		"clusterer":           mean(selfCluster),
		"server.unattributed": mean(unattr),
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	gap := 100 * max(0, -mean(unattr)) / e2e
	tol := spec.ReconcileTolerancePct
	if gap > tol {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("layers over-explain the traced op by %.2f%% (tolerance %.1f%%)", gap, tol))
	}
	res.Detail["reconcile"] = map[string]any{"self_s": self, "sum_s": sum, "traced_e2e_s": e2e, "gap_pct": gap, "tolerance_pct": tol}

	// The workload's symmetrizations and uploads happen at set-up; their
	// layers are reported per distinct symmetrization and per input.
	var symSecs, flops, nnzOut, bytesMoved []float64
	for _, sp := range syms {
		symSecs, flops = append(symSecs, sp.secs), append(flops, sp.flops)
		nnzOut, bytesMoved = append(nnzOut, sp.nnzOut), append(bytesMoved, sp.bytes)
	}
	var ingestS, ingestMB, spills []float64
	for _, ip := range ings {
		ingestS, ingestMB, spills = append(ingestS, ip.secs), append(ingestMB, ip.mbPerS), append(spills, ip.spillRuns)
	}

	// Trace overhead: traced cycles against the untraced cycle before
	// each, whole pairs only.
	var tr, un []float64
	for _, o := range ops {
		if c := o.idx / len(w.cycle); c < whole-whole%2 && o.err == nil {
			if o.traced {
				tr = append(tr, o.wall)
			} else {
				un = append(un, o.wall)
			}
		}
	}
	var overhead float64
	if len(tr) > 0 && len(un) > 0 {
		overhead = 100 * (mean(tr) - mean(un)) / mean(un)
	} else {
		res.Notes = append(res.Notes, "fewer than two whole cycles: obs.trace_overhead_pct not measured")
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	lookups := delta("symclusterd_cache_hits_total") + delta("symclusterd_cache_misses_total")
	var hitRatio float64
	if lookups > 0 {
		hitRatio = delta("symclusterd_cache_hits_total") / lookups
	}
	perOp := func(v float64) float64 { return v / float64(n) }
	return map[string]metric{
		"server.queue_wait_s":        {mean(queue), "s"},
		"server.response_bytes":      {mean(resp), "B"},
		"server.unattributed_s":      {mean(unattr), "s"},
		"cache.hit_ratio":            {hitRatio, "ratio"},
		"cache.evictions":            {perOp(delta("symclusterd_cache_evictions_total")), "count/op"},
		"ingest.busy_s":              {mean(ingestS), "s"},
		"ingest.mb_per_s":            {mean(ingestMB), "MB/s"},
		"ingest.spill_runs":          {mean(spills), "count"},
		"core.symmetrize_s":          {mean(symSecs), "s"},
		"core.flops":                 {mean(flops), "count"},
		"core.nnz_out":               {mean(nnzOut), "count"},
		"core.bytes_moved":           {mean(bytesMoved), "B"},
		"matrix.expand_s":            {expS, "s"},
		"matrix.expand_flops":        {expFlops, "count"},
		"multilevel.coarsen_s":       {mean(coarsen), "s"},
		"multilevel.levels":          {mean(levels), "count/op"},
		"mcl.cluster_s":              {mean(mclS), "s"},
		"mcl.clusters":               {mean(clusters), "count/op"},
		"metis.partition_s":          {mean(metisS), "s"},
		"graclus.cluster_s":          {mean(graclusS), "s"},
		"jobstore.wal_appends":       {perOp(delta("symclusterd_wal_appends_total")), "count/op"},
		"jobstore.wal_bytes":         {perOp(walWritten), "B/op"},
		"jobstore.checkpoints":       {perOp(delta("symclusterd_checkpoints_total")), "count/op"},
		"obs.trace_overhead_pct":     {overhead, "%"},
		"obs.reconcile_gap_pct":      {gap, "%"},
		"runtime.alloc_bytes_per_op": {perOp(float64(rt1.alloc - rt0.alloc)), "B/op"},
		"runtime.gc_pause_s":         {perOp(float64(rt1.gcPause-rt0.gcPause) / 1e9), "s/op"},
		"runtime.cpu_s_per_op":       {perOp((rt1.cpu - rt0.cpu).Seconds()), "s/op"},
	}, nil
}
