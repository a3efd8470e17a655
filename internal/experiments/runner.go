package experiments

import (
	"fmt"
	"sort"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/ridx"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// Runner executes experiments against lazily built, cached datasets.
type Runner struct {
	cfg Config

	dblp        *graph.Graph
	epinions    *graph.Graph
	epinionsUnd *graph.Graph
	road        *graph.Graph
	stores      []int32
}

// NewRunner returns a Runner for the configuration.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg}, nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// DBLP returns the cached DBLP-like graph.
func (r *Runner) DBLP() *graph.Graph {
	if r.dblp == nil {
		r.dblp = gen.DBLPLike(gen.DBLPLikeParams{
			Nodes:             r.cfg.DBLPNodes,
			AttachPerNode:     r.cfg.DBLPAttach,
			ExtraCollabFactor: 0.5,
			Seed:              r.cfg.Seed,
		})
	}
	return r.dblp
}

// Epinions returns the cached Epinions-like graph.
func (r *Runner) Epinions() *graph.Graph {
	if r.epinions == nil {
		r.epinions = gen.EpinionsLike(gen.EpinionsLikeParams{
			Nodes:        r.cfg.EpinionsNodes,
			OutPerNode:   r.cfg.EpinionsOut,
			BackEdgeProb: 0.3,
			Seed:         r.cfg.Seed + 1,
		})
	}
	return r.epinions
}

// EpinionsUndirected returns the symmetrized Epinions-like graph, used by
// the bound experiments (Tables 11-13) where the Lemma-4 count bound must
// be applicable.
func (r *Runner) EpinionsUndirected() *graph.Graph {
	if r.epinionsUnd == nil {
		r.epinionsUnd = gen.EpinionsLike(gen.EpinionsLikeParams{
			Nodes:        r.cfg.EpinionsNodes,
			OutPerNode:   r.cfg.EpinionsOut,
			BackEdgeProb: 0.3,
			Undirected:   true,
			Seed:         r.cfg.Seed + 1,
		})
	}
	return r.epinionsUnd
}

// Road returns the cached road network and its store nodes.
func (r *Runner) Road() (*graph.Graph, []int32) {
	if r.road == nil {
		r.road, r.stores = gen.RoadNetwork(gen.RoadNetworkParams{
			Rows: r.cfg.RoadRows, Cols: r.cfg.RoadCols,
			KeepProb: 0.25, Stores: r.cfg.Stores,
			Seed: r.cfg.Seed + 2,
		})
	}
	return r.road, r.stores
}

// buildIndex constructs an index with the runner's default (or overridden)
// parameters for the given graph. For bichromatic graphs pass the class
// slices; only candidate hubs may contribute entries (see ridx).
func (r *Runner) buildIndex(g *graph.Graph, hFrac, mFrac float64, strat hub.Strategy, candidates, counted []bool) (*ridx.SerialIndex, time.Duration, error) {
	h := frac(g.N(), hFrac)
	m := frac(g.N(), mFrac)
	start := time.Now()
	hubs := hub.Select(g, strat, h, hub.Options{Seed: r.cfg.Seed + 7})
	ix, err := ridx.Build(g, ridx.BuildParams{
		Hubs: hubs, M: m, K: r.cfg.KMax,
		Counted: counted, Candidates: candidates,
	})
	return ix, time.Since(start), err
}

func frac(n int, f float64) int {
	v := int(float64(n) * f)
	if v < 1 {
		v = 1
	}
	if v > n {
		v = n
	}
	return v
}

// batch aggregates a query workload's cost.
type batch struct {
	AvgTime   time.Duration
	AvgRefine float64
	Stats     core.Stats // summed over queries
	Queries   int
}

// runBatch evaluates each query with the engine and averages cost metrics.
// The workload runs as one shared-traversal batch: candidate refinements
// whose settle logs were recorded earlier in the batch are replayed from
// the engine arena instead of re-searching the graph. Results and the
// decision statistics reported by the experiments are byte-identical to
// per-query execution (asserted in core's batch tests); only the wall
// clock and the effort counters move.
func runBatch(e *core.Engine, algo core.Algorithm, queries []int32, k int) (batch, error) {
	var b batch
	var total time.Duration
	e.BeginBatch()
	defer e.EndBatch()
	for _, q := range queries {
		start := time.Now()
		res, err := e.Query(algo, q, k)
		if err != nil {
			return b, fmt.Errorf("%v q=%d k=%d: %w", algo, q, k, err)
		}
		total += time.Since(start)
		b.Stats.Add(res.Stats)
		b.Queries++
	}
	if b.Queries > 0 {
		b.AvgTime = total / time.Duration(b.Queries)
		b.AvgRefine = float64(b.Stats.Refinements) / float64(b.Queries)
	}
	return b, nil
}

// Experiment names, in paper order; "serving", "latency", "serving_http",
// "serving_cluster", "serving_batch", and "hublabel" extend the paper's
// evaluation with the pooled-concurrency throughput study, the
// single-query latency and allocation study, the HTTP serving-stack
// load sweep, the sharded scatter-gather study (rank-floor pruning vs
// naive gather across shard counts, through internal/cluster), the
// batch-scatter plus response-cache study (internal/cache over
// internal/cluster), the replica-set failover study ("serving_replica":
// ReplicaGroup serving with a dead replica per group), and the
// hub-label engine study (precomputed 2-hop label pruning vs Dynamic,
// through internal/hub); "mutation" measures the live-mutation pipeline
// (weight patches vs rebuild swaps, through internal/live).
var names = []string{
	"table3", "table4", "figure5",
	"figure6", "naive",
	"table6", "table7", "table8", "table9", "table10",
	"table11", "table12", "table13",
	"table14", "table15",
	"figure7",
	"serving",
	"latency",
	"serving_http",
	"serving_cluster",
	"serving_batch",
	"serving_replica",
	"hublabel",
	"mutation",
}

// Names lists all experiment identifiers in paper order.
func Names() []string { return append([]string(nil), names...) }

// Run dispatches an experiment by name.
func (r *Runner) Run(name string) ([]*stats.Table, error) {
	switch name {
	case "table3":
		t, err := r.Table3()
		return wrap(t), err
	case "table4":
		t, err := r.Table4()
		return wrap(t), err
	case "figure5":
		t, err := r.CaseStudy()
		return wrap(t), err
	case "figure6":
		return r.Figure6()
	case "naive":
		t, err := r.NaiveGap()
		return wrap(t), err
	case "table6":
		t, err := r.HubSweep("dblp")
		return wrap(t), err
	case "table7":
		t, err := r.HubSweep("epinions")
		return wrap(t), err
	case "table8":
		t, err := r.IndexSweep("dblp")
		return wrap(t), err
	case "table9":
		t, err := r.IndexSweep("epinions")
		return wrap(t), err
	case "table10":
		t, err := r.Table10()
		return wrap(t), err
	case "table11":
		t, err := r.Table11()
		return wrap(t), err
	case "table12":
		t, err := r.BoundAblation(true)
		return wrap(t), err
	case "table13":
		t, err := r.BoundAblation(false)
		return wrap(t), err
	case "table14":
		t, err := r.Table14()
		return wrap(t), err
	case "table15":
		t, err := r.Table15()
		return wrap(t), err
	case "figure7":
		return r.Figure7()
	case "serving":
		t, err := r.Serving()
		return wrap(t), err
	case "latency":
		t, err := r.Latency()
		return wrap(t), err
	case "serving_http":
		t, err := r.ServingHTTP()
		return wrap(t), err
	case "serving_cluster":
		t, err := r.ServingCluster()
		return wrap(t), err
	case "serving_batch":
		t, err := r.ServingBatch()
		return wrap(t), err
	case "serving_replica":
		t, err := r.ServingReplica()
		return wrap(t), err
	case "hublabel":
		t, err := r.HubLabelBench()
		return wrap(t), err
	case "mutation":
		t, err := r.Mutation()
		return wrap(t), err
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, names)
}

func wrap(t *stats.Table) []*stats.Table {
	if t == nil {
		return nil
	}
	return []*stats.Table{t}
}

// graphByName resolves the dataset axis used by several experiments.
func (r *Runner) graphByName(name string) (*graph.Graph, error) {
	switch name {
	case "dblp":
		return r.DBLP(), nil
	case "epinions":
		return r.Epinions(), nil
	case "epinions-und":
		return r.EpinionsUndirected(), nil
	}
	return nil, fmt.Errorf("experiments: unknown dataset %q", name)
}

// queriesFor returns the default random workload for a graph.
func (r *Runner) queriesFor(g *graph.Graph) []int32 {
	return workload.Random(g, r.cfg.Queries, r.cfg.Seed+13)
}

// sortedKs returns the configured k axis in ascending order.
func (r *Runner) sortedKs() []int {
	ks := append([]int(nil), r.cfg.Ks...)
	sort.Ints(ks)
	return ks
}
