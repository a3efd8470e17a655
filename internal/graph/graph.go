// Package graph provides the weighted-graph substrate used by every engine
// in this repository: a compact CSR (compressed sparse row) representation
// of a directed or undirected graph with non-negative float64 edge weights,
// an incremental Builder, transpose views, and text/binary serialization.
//
// Node identifiers are dense int32 values in [0, N). Optional string labels
// can be attached for human-facing tools; all algorithms operate on ids.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node. IDs are dense: a graph with N nodes uses ids
// 0..N-1.
type NodeID = int32

// Edge is a single weighted edge, used by the Builder and by iteration
// helpers. For undirected graphs an Edge represents the unordered pair
// {From, To}.
type Edge struct {
	From   NodeID
	To     NodeID
	Weight float64
}

// Graph is an immutable weighted graph in CSR form. Use a Builder to
// construct one. The zero value is an empty undirected graph.
//
// For undirected graphs every edge appears in both adjacency lists, and the
// transpose accessors alias the forward arrays. For directed graphs the
// transpose CSR is materialized at Finalize time, so reverse traversals
// (needed by the SDS-tree, which explores distances *to* the query node)
// are as cheap as forward ones.
type Graph struct {
	directed bool
	numEdges int64 // logical edge count (each undirected edge counted once)

	offsets []int64
	targets []int32
	weights []float64

	toffsets []int64
	ttargets []int32
	tweights []float64

	labels   []string
	labelIdx map[string]NodeID

	pk packed // lazily built CSR views (see Packed)
}

// N returns the number of nodes.
func (g *Graph) N() int {
	if g.offsets == nil {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of logical edges (an undirected edge counts once).
func (g *Graph) M() int64 { return g.numEdges }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// OutDegree returns the out-degree of u (degree, for undirected graphs).
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// InDegree returns the in-degree of u (degree, for undirected graphs).
func (g *Graph) InDegree(u NodeID) int {
	return int(g.toffsets[u+1] - g.toffsets[u])
}

// Neighbors returns the forward adjacency of u as parallel slices of
// targets and weights. The returned slices alias internal storage and must
// not be modified.
func (g *Graph) Neighbors(u NodeID) ([]int32, []float64) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// RNeighbors returns the reverse adjacency of u (the adjacency of u in the
// transpose graph G^T). For undirected graphs this is identical to
// Neighbors. The returned slices alias internal storage.
func (g *Graph) RNeighbors(u NodeID) ([]int32, []float64) {
	lo, hi := g.toffsets[u], g.toffsets[u+1]
	return g.ttargets[lo:hi], g.tweights[lo:hi]
}

// HasLabels reports whether nodes carry string labels.
func (g *Graph) HasLabels() bool { return g.labels != nil }

// Label returns the label of u, or its decimal id when no labels are set.
func (g *Graph) Label(u NodeID) string {
	if g.labels == nil {
		return fmt.Sprintf("%d", u)
	}
	return g.labels[u]
}

// NodeByLabel returns the node with the given label.
func (g *Graph) NodeByLabel(label string) (NodeID, bool) {
	id, ok := g.labelIdx[label]
	return id, ok
}

// Edges calls fn for every logical edge. For undirected graphs each edge is
// reported once with From < To (self-loops with From == To). Iteration stops
// early if fn returns false.
func (g *Graph) Edges(fn func(Edge) bool) {
	n := g.N()
	for u := 0; u < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		selfParity := false
		for i := lo; i < hi; i++ {
			v, w := g.targets[i], g.weights[i]
			if !g.directed && v < int32(u) {
				continue // reported from the smaller endpoint
			}
			if !g.directed && v == int32(u) {
				// An undirected self-loop stores two identical parity arcs
				// in this span; report the logical edge once.
				selfParity = !selfParity
				if !selfParity {
					continue
				}
			}
			if !fn(Edge{From: int32(u), To: v, Weight: w}) {
				return
			}
		}
	}
}

// TotalWeight returns the sum of all logical edge weights.
func (g *Graph) TotalWeight() float64 {
	var sum float64
	g.Edges(func(e Edge) bool { sum += e.Weight; return true })
	return sum
}

// MaxOutDegreeNode returns the node with the largest out-degree (smallest id
// wins ties) and that degree. It returns (0, 0) for an empty graph.
func (g *Graph) MaxOutDegreeNode() (NodeID, int) {
	best, bestDeg := NodeID(0), -1
	for u := 0; u < g.N(); u++ {
		if d := g.OutDegree(int32(u)); d > bestDeg {
			best, bestDeg = int32(u), d
		}
	}
	if bestDeg < 0 {
		return 0, 0
	}
	return best, bestDeg
}

// Validate checks structural invariants: offset monotonicity, target range,
// non-negative finite weights, and (for undirected graphs) adjacency
// symmetry. It returns nil when the graph is well-formed.
func (g *Graph) Validate() error {
	n := g.N()
	if err := validateCSR(n, g.offsets, g.targets, g.weights); err != nil {
		return fmt.Errorf("forward CSR: %w", err)
	}
	if err := validateCSR(n, g.toffsets, g.ttargets, g.tweights); err != nil {
		return fmt.Errorf("transpose CSR: %w", err)
	}
	if !g.directed {
		for u := 0; u < n; u++ {
			ts, ws := g.Neighbors(int32(u))
			for i, v := range ts {
				if !hasArc(g, v, int32(u), ws[i]) {
					return fmt.Errorf("undirected graph missing mirror arc %d->%d (w=%g)", v, u, ws[i])
				}
			}
		}
	}
	return nil
}

func validateCSR(n int, offsets []int64, targets []int32, weights []float64) error {
	if len(offsets) != n+1 {
		return fmt.Errorf("offsets length %d, want %d", len(offsets), n+1)
	}
	if offsets[0] != 0 {
		return errors.New("offsets[0] != 0")
	}
	for i := 0; i < n; i++ {
		if offsets[i+1] < offsets[i] {
			return fmt.Errorf("offsets not monotone at %d", i)
		}
	}
	if got := offsets[n]; got != int64(len(targets)) {
		return fmt.Errorf("offsets[n]=%d, want len(targets)=%d", got, len(targets))
	}
	if len(targets) != len(weights) {
		return errors.New("targets and weights length mismatch")
	}
	for i, v := range targets {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("target %d out of range at arc %d", v, i)
		}
		w := weights[i]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("invalid weight %g at arc %d", w, i)
		}
	}
	return nil
}

func hasArc(g *Graph, u, v NodeID, w float64) bool {
	ts, ws := g.Neighbors(u)
	for i, t := range ts {
		if t == v && ws[i] == w {
			return true
		}
	}
	return false
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// builds an undirected graph; use NewBuilder to pick directedness. Builders
// are not safe for concurrent use.
type Builder struct {
	directed bool
	n        int32
	edges    []Edge
	labels   []string
	labelIdx map[string]NodeID
	dedupe   bool
}

// NewBuilder returns a Builder for a graph with the given directedness.
func NewBuilder(directed bool) *Builder {
	return &Builder{directed: directed}
}

// SetDedupe controls duplicate-edge handling at Finalize time. When enabled,
// parallel edges between the same ordered pair collapse to the minimum
// weight (the only weight shortest-path computations can observe).
func (b *Builder) SetDedupe(on bool) { b.dedupe = on }

// EnsureNodes grows the node count to at least n.
func (b *Builder) EnsureNodes(n int) {
	if int32(n) > b.n {
		b.n = int32(n)
	}
}

// AddNode appends a fresh node and returns its id.
func (b *Builder) AddNode() NodeID {
	id := b.n
	b.n++
	return id
}

// AddLabeledNode appends a fresh node with a label, returning the existing
// node when the label was already registered.
func (b *Builder) AddLabeledNode(label string) NodeID {
	if b.labelIdx == nil {
		b.labelIdx = make(map[string]NodeID)
	}
	if id, ok := b.labelIdx[label]; ok {
		return id
	}
	id := b.AddNode()
	for int32(len(b.labels)) < id {
		b.labels = append(b.labels, fmt.Sprintf("%d", len(b.labels)))
	}
	b.labels = append(b.labels, label)
	b.labelIdx[label] = id
	return id
}

// AddEdge records an edge. Endpoints must already exist (via AddNode,
// AddLabeledNode, or EnsureNodes). Weights must be non-negative and finite.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("edge (%d,%d) references unknown node (n=%d)", u, v, b.n)
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("edge (%d,%d) has invalid weight %g", u, v, w)
	}
	b.edges = append(b.edges, Edge{From: u, To: v, Weight: w})
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// generators that construct edges programmatically.
func (b *Builder) MustAddEdge(u, v NodeID, w float64) {
	if err := b.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// N returns the current node count.
func (b *Builder) N() int { return int(b.n) }

// NumEdges returns the number of edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Finalize builds the immutable Graph. The Builder may be reused afterwards
// (its recorded edges are copied out, not shared).
func (b *Builder) Finalize() *Graph {
	edges := b.edges
	if b.dedupe {
		edges = dedupeEdges(edges, b.directed)
	}
	n := int(b.n)
	g := &Graph{directed: b.directed, numEdges: int64(len(edges))}
	if b.labels != nil {
		for int32(len(b.labels)) < b.n {
			b.labels = append(b.labels, fmt.Sprintf("%d", len(b.labels)))
		}
		g.labels = append([]string(nil), b.labels...)
		g.labelIdx = make(map[string]NodeID, len(g.labels))
		for i, l := range g.labels {
			g.labelIdx[l] = int32(i)
		}
	}

	g.offsets, g.targets, g.weights = buildCSR(n, edges, b.directed, false)
	if b.directed {
		g.toffsets, g.ttargets, g.tweights = buildCSR(n, edges, true, true)
	} else {
		g.toffsets, g.ttargets, g.tweights = g.offsets, g.targets, g.weights
	}
	return g
}

// buildCSR assembles a CSR from the edge list. For undirected graphs each
// edge contributes an arc in both directions; reverse selects the transpose
// orientation for directed graphs. Adjacency lists are sorted by (target,
// weight) for determinism.
func buildCSR(n int, edges []Edge, directed, reverse bool) ([]int64, []int32, []float64) {
	arcs := len(edges)
	if !directed {
		arcs *= 2
	}
	offsets := make([]int64, n+1)
	count := func(u NodeID) { offsets[u+1]++ }
	for _, e := range edges {
		from, to := e.From, e.To
		if reverse {
			from, to = to, from
		}
		count(from)
		if !directed {
			count(to)
		}
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	targets := make([]int32, arcs)
	weights := make([]float64, arcs)
	next := make([]int64, n)
	copy(next, offsets[:n])
	place := func(u, v NodeID, w float64) {
		i := next[u]
		targets[i] = v
		weights[i] = w
		next[u]++
	}
	for _, e := range edges {
		from, to := e.From, e.To
		if reverse {
			from, to = to, from
		}
		place(from, to, e.Weight)
		if !directed && from != to {
			place(to, from, e.Weight)
		} else if !directed {
			place(to, from, e.Weight) // keep arc parity for self-loops
		}
	}
	for u := 0; u < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		if hi-lo > 1 {
			sortAdj(targets[lo:hi], weights[lo:hi])
		}
	}
	return offsets, targets, weights
}

func sortAdj(targets []int32, weights []float64) {
	sort.Sort(&adjSorter{targets, weights})
}

type adjSorter struct {
	t []int32
	w []float64
}

func (s *adjSorter) Len() int { return len(s.t) }
func (s *adjSorter) Less(i, j int) bool {
	if s.t[i] != s.t[j] {
		return s.t[i] < s.t[j]
	}
	return s.w[i] < s.w[j]
}
func (s *adjSorter) Swap(i, j int) {
	s.t[i], s.t[j] = s.t[j], s.t[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

func dedupeEdges(edges []Edge, directed bool) []Edge {
	type key struct{ u, v NodeID }
	best := make(map[key]float64, len(edges))
	order := make([]key, 0, len(edges))
	for _, e := range edges {
		u, v := e.From, e.To
		if !directed && u > v {
			u, v = v, u
		}
		k := key{u, v}
		if w, ok := best[k]; !ok {
			best[k] = e.Weight
			order = append(order, k)
		} else if e.Weight < w {
			best[k] = e.Weight
		}
	}
	out := make([]Edge, 0, len(order))
	for _, k := range order {
		out = append(out, Edge{From: k.u, To: k.v, Weight: best[k]})
	}
	return out
}
