// Package gen produces the synthetic datasets the experiments run on. The
// paper evaluates on three real graphs we do not have (DBLP, Epinions, the
// San Francisco road network); each generator here reproduces the
// structural properties that drive reverse k-ranks behaviour on its real
// counterpart — degree skew, directedness, weight distribution, and (for
// the road network) planar low-degree topology.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rkranks/internal/graph"
)

// DBLPLikeParams configures DBLPLike.
type DBLPLikeParams struct {
	Nodes int // number of authors
	// AttachPerNode is the number of collaborations sampled per arriving
	// author (preferential attachment); repeated pairs model repeated
	// co-authorship. The paper's DBLP graph has average degree ~14.
	AttachPerNode int
	// ExtraCollabFactor adds Nodes*factor additional collaborations between
	// existing authors, thickening the core like long careers do.
	ExtraCollabFactor float64
	Seed              int64
}

// DBLPLike generates an undirected collaboration graph via preferential
// attachment with repeat collaborations, then assigns the paper's DBLP edge
// weight: 1/#papers(u,v) + log2(deg u) + log2(deg v), normalized into
// (0, 1]. Connected by construction.
func DBLPLike(p DBLPLikeParams) *graph.Graph {
	if p.Nodes < 2 {
		panic("gen: DBLPLike needs >= 2 nodes")
	}
	if p.AttachPerNode < 1 {
		p.AttachPerNode = 7
	}
	rng := rand.New(rand.NewSource(p.Seed))

	type pair struct{ a, b int32 }
	papers := make(map[pair]int)
	deg := make([]int, p.Nodes)
	collab := func(u, v int32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		k := pair{u, v}
		if papers[k] == 0 {
			deg[u]++
			deg[v]++
		}
		papers[k]++
	}

	// Preferential attachment over a repeated-endpoint urn.
	urn := make([]int32, 0, p.Nodes*p.AttachPerNode*2)
	urn = append(urn, 0, 1)
	collab(0, 1)
	for v := 2; v < p.Nodes; v++ {
		for a := 0; a < p.AttachPerNode; a++ {
			t := urn[rng.Intn(len(urn))]
			collab(int32(v), t)
			urn = append(urn, int32(v), t)
		}
	}
	extra := int(float64(p.Nodes) * p.ExtraCollabFactor)
	for i := 0; i < extra; i++ {
		u := urn[rng.Intn(len(urn))]
		v := urn[rng.Intn(len(urn))]
		collab(u, v)
	}

	// Paper's DBLP weighting, normalized so weights land in (0, 1].
	b := graph.NewBuilder(false)
	b.EnsureNodes(p.Nodes)
	maxRaw := 0.0
	raws := make(map[pair]float64, len(papers))
	for k, cnt := range papers {
		raw := 1/float64(cnt) + math.Log2(float64(deg[k.a])+1) + math.Log2(float64(deg[k.b])+1)
		raws[k] = raw
		if raw > maxRaw {
			maxRaw = raw
		}
	}
	for k, raw := range raws {
		b.MustAddEdge(k.a, k.b, raw/maxRaw)
	}
	return b.Finalize()
}

// EpinionsLikeParams configures EpinionsLike.
type EpinionsLikeParams struct {
	Nodes int
	// OutPerNode is the number of trust statements issued per arriving
	// user. The real Epinions graph has average degree ~6.7.
	OutPerNode int
	// BackEdgeProb adds a reciprocal trust edge with this probability.
	BackEdgeProb float64
	// ZipfS is the Zipf skewness for edge weights; the paper samples
	// weights from Zipf with alpha = 2.
	ZipfS float64
	// ZipfMax caps the sampled weight values.
	ZipfMax uint64
	// Undirected symmetrizes the trust edges. The paper's Epinions graph is
	// directed, but its Lemma-4 (count bound) experiments require an
	// undirected graph; this flag builds the same topology undirected.
	Undirected bool
	Seed       int64
}

// EpinionsLike generates a directed trust graph: preferential attachment on
// in-degree (popular reviewers attract trust), optional reciprocal edges,
// and Zipf-distributed positive weights, as the paper synthesizes for the
// real Epinions topology.
func EpinionsLike(p EpinionsLikeParams) *graph.Graph {
	if p.Nodes < 2 {
		panic("gen: EpinionsLike needs >= 2 nodes")
	}
	if p.OutPerNode < 1 {
		p.OutPerNode = 3
	}
	if p.ZipfS <= 1 {
		p.ZipfS = 2
	}
	if p.ZipfMax == 0 {
		p.ZipfMax = 1000
	}
	rng := rand.New(rand.NewSource(p.Seed))
	zipf := rand.NewZipf(rng, p.ZipfS, 1, p.ZipfMax)
	weight := func() float64 { return float64(zipf.Uint64() + 1) }

	b := graph.NewBuilder(!p.Undirected)
	b.SetDedupe(true)
	b.EnsureNodes(p.Nodes)
	urn := []int32{0, 1}
	b.MustAddEdge(1, 0, weight())
	for v := 2; v < p.Nodes; v++ {
		for a := 0; a < p.OutPerNode; a++ {
			t := urn[rng.Intn(len(urn))]
			if t == int32(v) {
				continue
			}
			b.MustAddEdge(int32(v), t, weight())
			if rng.Float64() < p.BackEdgeProb {
				b.MustAddEdge(t, int32(v), weight())
			}
			urn = append(urn, t)
		}
		urn = append(urn, int32(v))
	}
	return b.Finalize()
}

// RoadNetworkParams configures RoadNetwork.
type RoadNetworkParams struct {
	Rows, Cols int
	// KeepProb is the probability of keeping a non-tree grid edge; the SF
	// road network's average degree is ~2.5, far below a full grid's ~4,
	// reflecting long road chains. A spanning tree is always kept, so the
	// network stays connected.
	KeepProb float64
	// Stores is the number of store nodes to mark (the paper's SF dataset
	// has 408 stores among ~321k road nodes).
	Stores int
	Seed   int64
}

// RoadNetwork generates an undirected perturbed-grid road network with
// travel-time weights and returns it together with the sampled store node
// ids (for bichromatic queries). Store ids are sorted and distinct.
func RoadNetwork(p RoadNetworkParams) (*graph.Graph, []int32) {
	if p.Rows < 2 || p.Cols < 2 {
		panic("gen: RoadNetwork needs a grid of at least 2x2")
	}
	if p.KeepProb <= 0 {
		p.KeepProb = 0.25
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.Rows * p.Cols
	id := func(r, c int) int32 { return int32(r*p.Cols + c) }
	travel := func() float64 { return 0.5 + rng.Float64() } // minutes per segment

	b := graph.NewBuilder(false)
	b.EnsureNodes(n)
	// Spanning tree: serpentine path through the grid keeps everything
	// reachable regardless of how many cross edges are dropped.
	for r := 0; r < p.Rows; r++ {
		for c := 0; c+1 < p.Cols; c++ {
			b.MustAddEdge(id(r, c), id(r, c+1), travel())
		}
		if r+1 < p.Rows {
			c := 0
			if r%2 == 1 {
				c = p.Cols - 1
			}
			b.MustAddEdge(id(r, c), id(r+1, c), travel())
		}
	}
	// Random subset of the remaining vertical edges.
	for r := 0; r+1 < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			onTree := (r%2 == 1 && c == 0) || (r%2 == 0 && c == p.Cols-1)
			if onTree {
				continue
			}
			if rng.Float64() < p.KeepProb {
				b.MustAddEdge(id(r, c), id(r+1, c), travel())
			}
		}
	}
	g := b.Finalize()

	stores := make([]int32, 0, p.Stores)
	if p.Stores > 0 {
		k := p.Stores
		if k > n {
			k = n
		}
		perm := rng.Perm(n)
		for _, v := range perm[:k] {
			stores = append(stores, int32(v))
		}
		sort.Slice(stores, func(i, j int) bool { return stores[i] < stores[j] })
	}
	return g, stores
}

// GNM generates a uniform random graph with n nodes and m edges (no
// self-loops; parallel edges collapse to the lighter one). Used by property
// tests to exercise the engines on arbitrary topologies, including
// disconnected ones.
func GNM(n, m int, directed bool, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(directed)
	b.SetDedupe(true)
	b.EnsureNodes(n)
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		b.MustAddEdge(u, v, 0.05+rng.Float64())
	}
	return b.Finalize()
}

// StoreClasses converts a store list into the bichromatic class slices
// expected by core.Options: stores form the counted/query class V2 and all
// other nodes form the candidate class V1.
func StoreClasses(n int, stores []int32) (candidates, counted []bool) {
	candidates = make([]bool, n)
	counted = make([]bool, n)
	for i := range candidates {
		candidates[i] = true
	}
	for _, s := range stores {
		candidates[s] = false
		counted[s] = true
	}
	return candidates, counted
}

// Named builds the synthetic graph a serving command's -gen flag selects
// (dblp|epinions|road|gnm). The parameter choices live here ONCE because
// rkserve shards and a rkcluster coordinator must load graphs that agree
// node for node and edge for edge: two per-command copies drifting apart
// would pass the coordinator's node-count check and still merge silently
// wrong.
func Named(kind string, nodes int, seed int64) (*graph.Graph, error) {
	switch kind {
	case "dblp":
		return DBLPLike(DBLPLikeParams{Nodes: nodes, AttachPerNode: 7, ExtraCollabFactor: 0.5, Seed: seed}), nil
	case "epinions":
		return EpinionsLike(EpinionsLikeParams{Nodes: nodes, OutPerNode: 3, BackEdgeProb: 0.3, Seed: seed}), nil
	case "road":
		g, _ := RoadNetwork(RoadNetworkParams{Rows: 100, Cols: 100, KeepProb: 0.25, Stores: 100, Seed: seed})
		return g, nil
	case "gnm":
		return GNM(nodes, 3*nodes, false, seed), nil
	}
	return nil, fmt.Errorf("gen: unknown graph kind %q (want dblp|epinions|road|gnm)", kind)
}
