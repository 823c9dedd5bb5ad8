package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"symcluster"
	"symcluster/internal/eval"
	"symcluster/internal/gen"
	"symcluster/internal/graph"
	"symcluster/internal/server"
)

// input is one generated graph exactly as the daemon receives it (the
// edge-list bytes) and the planted truth when the generator has one.
type input struct {
	name  string
	edges []byte
	truth *eval.GroundTruth
	// parsed is the reference side's parse of edges, made on first use
	// outside the timed region.
	parsed struct {
		once sync.Once
		g    *symcluster.DirectedGraph
		err  error
	}
	// id is the daemon's graph id, set when the graph is registered at
	// set-up.
	id string
	// spillRuns is the sorted runs the daemon's ingest spilled when the
	// graph was uploaded at set-up.
	spillRuns int64
}

// request is one distinct clustering configuration of a workload.
type request struct {
	in        *input
	method    string
	algo      string
	k         int
	threshold float64
	inflation float64
	seed      int64
}

func (r *request) wire(graphID string, async bool) server.ClusterRequest {
	return server.ClusterRequest{
		GraphID:   graphID,
		Method:    r.method,
		Algorithm: r.algo,
		K:         r.k,
		Threshold: r.threshold,
		Inflation: r.inflation,
		Seed:      r.seed,
		Async:     async,
	}
}

func (r *request) symOptions() symcluster.SymmetrizeOptions {
	opt := symcluster.DefaultSymmetrizeOptions()
	opt.Threshold = r.threshold
	return opt
}

func (r *request) clusterOptions() symcluster.ClusterOptions {
	return symcluster.ClusterOptions{TargetClusters: r.k, Inflation: r.inflation, Seed: r.seed}
}

// symKey identifies the symmetrization a request needs; requests that
// share one share the daemon's cache entry.
func (r *request) symKey() string {
	return fmt.Sprintf("%s/%s/%g", r.in.name, r.method, r.threshold)
}

func (r *request) String() string {
	return fmt.Sprintf("%s %s+%s k=%d seed=%d", r.in.name, r.method, r.algo, r.k, r.seed)
}

// workload is a closed loop of clients rotating over a fixed cycle of
// requests against one freshly booted daemon.
type workload struct {
	name    string
	clients int
	async   bool
	// upload registers the inputs at set-up through chunked upload
	// sessions (the streaming csr ingest) instead of one POST each.
	upload bool
	inputs []*input
	cycle  []*request
	// warm lists the requests run once at set-up, at least one per
	// distinct symmetrization, so the timed loop starts with the caches
	// it would have in steady state.
	warm []*request
	// cfg is the daemon configuration; directories are filled at boot.
	cfg     server.Config
	durable bool
}

// uploadChunk is the chunk size of set-up uploads.
const uploadChunk = 16 << 10

// ingestMemBytes is the daemon's in-memory ingest buffer on the
// uploading workload. The sorter buffers at least 4096 edges whatever
// the budget, so each upload (about 7000 edges) spills one sorted run
// and takes the external-merge path.
const ingestMemBytes = 16 << 10

var workloadNames = []string{"mcl-async", "partition-mix"}

// buildWorkload generates a workload's inputs from seed. tiny shrinks
// every input to smoke-test size without changing the workload's shape.
func buildWorkload(name string, seed int64, tiny bool) (*workload, error) {
	switch name {
	case "mcl-async":
		return mclAsync(seed, tiny)
	case "partition-mix":
		return partitionMix(seed, tiny)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mclAsync: planted-topic citation graphs uploaded at set-up to a
// durable daemon, async dd + MLR-MCL jobs from a single client. The
// cycle pairs each graph with its own MCL seed; averaging over several
// graphs keeps the run's median and avg_f from hinging on one graph's
// structure.
func mclAsync(seed int64, tiny bool) (*workload, error) {
	graphs, nodes := 6, 700
	if tiny {
		graphs, nodes = 2, 120
	}
	w := &workload{name: "mcl-async", clients: 1, async: true, upload: true, durable: true}
	for g := 0; g < graphs; g++ {
		ds, err := gen.Citation(gen.CitationOptions{Nodes: nodes, Topics: 8, MeanCites: 10, WithinTopicProb: 0.9, Seed: seed*100 + int64(g)})
		if err != nil {
			return nil, err
		}
		in := uploadInput(fmt.Sprintf("cite%d", g), ds.Graph)
		in.truth = ds.Truth
		w.inputs = append(w.inputs, in)
		w.cycle = append(w.cycle, &request{in: in, method: "dd", algo: "mcl", threshold: 0.02, inflation: 1.6, seed: int64(g + 1)})
		// The cache key is the symmetrization alone, so a cheap Graclus
		// request fills the entry the MCL jobs then hit.
		w.warm = append(w.warm, &request{in: in, method: "dd", algo: "graclus", k: 2, threshold: 0.02, seed: 1})
	}
	w.cfg.IngestMemBytes = ingestMemBytes
	return w, nil
}

// partitionMix: wiki-like and citation graphs registered at set-up,
// sync requests rotating over graphs × methods, each pair served by one
// of {graclus at k = K, metis at k ∈ {K, 2K, 3K}} in turn (K the graph's
// planted category count). Graph sizes step through a range, so
// op costs fill a continuum: the median and the tail then sit among
// many neighbouring configurations instead of at the edge of a gap
// between a few, where one graph's structure would move them.
func partitionMix(seed int64, tiny bool) (*workload, error) {
	wikiClusters := []int{8, 12, 16, 20, 24, 28}
	citeNodes := []int{500, 800, 1100, 1400, 1700, 2000}
	if tiny {
		wikiClusters, citeNodes = []int{3, 4}, []int{120, 200}
	}
	w := &workload{name: "partition-mix", clients: 2}
	for g := range wikiClusters {
		c := wikiClusters[g]
		wiki, err := gen.Wiki(gen.WikiOptions{ListClusters: c, ListMembersMin: 20, ListMembersMax: 20,
			RecipClusters: c, RecipMembersMin: 25, RecipMembersMax: 25, Seed: seed*100 + int64(g)})
		if err != nil {
			return nil, err
		}
		cite, err := gen.Citation(gen.CitationOptions{Nodes: citeNodes[g], Topics: 8, MeanCites: 10,
			WithinTopicProb: 0.9, Seed: seed*100 + 50 + int64(g)})
		if err != nil {
			return nil, err
		}
		for _, ds := range []struct {
			name string
			d    *gen.Dataset
		}{{"wiki", wiki}, {"cite", cite}} {
			in, err := newInput(fmt.Sprintf("%s%d", ds.name, g), ds.d.Graph, ds.d.Truth)
			if err != nil {
				return nil, err
			}
			w.inputs = append(w.inputs, in)
		}
	}
	methods := []struct {
		name      string
		threshold float64
	}{{"dd", 0.05}, {"bib", 4}, {"aat", 0}, {"rw", 0}}
	runs := []struct {
		algo string
		kf   int
	}{{"graclus", 1}, {"metis", 1}, {"metis", 2}, {"metis", 3}}
	for gi, in := range w.inputs {
		for mi, m := range methods {
			run := runs[(gi+mi)%len(runs)]
			w.cycle = append(w.cycle, &request{in: in, method: m.name, algo: run.algo,
				k: run.kf * in.truth.K, threshold: m.threshold, seed: 1})
			// A Graclus request fills the cache entry cheaply.
			w.warm = append(w.warm, &request{in: in, method: m.name, algo: "graclus",
				k: in.truth.K, threshold: m.threshold, seed: 1})
		}
	}
	return w, nil
}

// newInput serializes g to the edge-list text the daemon is sent.
func newInput(name string, g *graph.Directed, truth *eval.GroundTruth) (*input, error) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return nil, err
	}
	return &input{name: name, edges: buf.Bytes(), truth: truth}, nil
}

// graph is the input parsed from its edge-list bytes by the library's
// own reader, as a user of the library would load it.
func (in *input) graph() (*symcluster.DirectedGraph, error) {
	in.parsed.once.Do(func() {
		in.parsed.g, in.parsed.err = symcluster.ReadEdgeList(bytes.NewReader(in.edges))
	})
	return in.parsed.g, in.parsed.err
}

// uploadInput is g's edge list written in order of each edge's larger
// endpoint, so the ids seen so far stay dense at every prefix, as the
// daemon's streaming ingest requires of an upload.
func uploadInput(name string, g *graph.Directed) *input {
	type edge struct {
		u, v int
		w    float64
	}
	edges := make([]edge, 0, g.M())
	for i := 0; i < g.N(); i++ {
		cols, vals := g.Adj.Row(i)
		for k, c := range cols {
			edges = append(edges, edge{i, int(c), vals[k]})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		ea, eb := edges[a], edges[b]
		if ma, mb := max(ea.u, ea.v), max(eb.u, eb.v); ma != mb {
			return ma < mb
		}
		if ea.u != eb.u {
			return ea.u < eb.u
		}
		return ea.v < eb.v
	})
	var buf bytes.Buffer
	for _, e := range edges {
		buf.WriteString(strconv.Itoa(e.u))
		buf.WriteByte(' ')
		buf.WriteString(strconv.Itoa(e.v))
		if e.w != 1 {
			buf.WriteByte(' ')
			buf.WriteString(strconv.FormatFloat(e.w, 'g', -1, 64))
		}
		buf.WriteByte('\n')
	}
	return &input{name: name, edges: buf.Bytes()}
}
