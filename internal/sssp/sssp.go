// Package sssp provides single-source shortest-path primitives (Dijkstra)
// over the graph substrate, designed for the access patterns of reverse
// k-ranks processing:
//
//   - incremental settle-order iteration (Pop/Expand), so callers can stop
//     early, skip subtree expansion, or interleave bookkeeping per settled
//     node — exactly what the SDS-tree framework needs;
//   - reverse-graph traversal for computing distances *to* a node;
//   - O(touched) per-query cost via epoch-reset workspaces.
//
// The expand loops iterate the graph's packed CSR view (graph.Packed): one
// interleaved Arc{target, weight} stream per node instead of two parallel
// slices, which halves the pointer traffic of the relaxation inner loop.
// Graphs too large for int32 CSR offsets fall back to the adjacency-slice
// path transparently.
//
// A Search is bound to one graph and reused across many runs; it is not
// safe for concurrent use (use one Search per goroutine).
package sssp

import (
	"math"

	"rkranks/internal/graph"
	"rkranks/internal/pqueue"
)

// Search is a reusable Dijkstra traversal over a fixed graph.
type Search struct {
	g       *graph.Graph
	q       *pqueue.Queue
	parent  []int32
	depth   []int32
	fwd     *graph.CSR // packed forward view, nil when the graph overflows int32 offsets
	rev     *graph.CSR // packed reverse view (aliases fwd for undirected graphs)
	cur     *graph.CSR // view for the current run's direction, nil on the slice path
	reverse bool
	lite    bool
	settled int
}

// New returns a Search over g.
func New(g *graph.Graph) *Search {
	n := g.N()
	fwd, rev := g.Packed()
	return &Search{
		g:      g,
		q:      pqueue.New(n),
		parent: make([]int32, n),
		depth:  make([]int32, n),
		fwd:    fwd,
		rev:    rev,
	}
}

// NewLite returns a Search that skips shortest-path-tree bookkeeping:
// Parent and Depth are unavailable (no per-settle parent/depth writes, no
// per-relaxation parent store), which makes it the cheapest traversal for
// callers that only consume settle order and distances — the rank
// refinement inner loop in particular.
func NewLite(g *graph.Graph) *Search {
	fwd, rev := g.Packed()
	return &Search{
		g:    g,
		q:    pqueue.New(g.N()),
		fwd:  fwd,
		rev:  rev,
		lite: true,
	}
}

// DisablePacked forces this Search onto the adjacency-slice path, as if the
// graph were too large to pack. It exists so tests and benchmarks can
// compare the two kernels; production callers never need it.
func (s *Search) DisablePacked() {
	s.fwd, s.rev, s.cur = nil, nil, nil
}

// Graph returns the graph this search traverses.
func (s *Search) Graph() *graph.Graph { return s.g }

// Reset prepares a forward traversal from src (distances d(src, v)).
func (s *Search) Reset(src int32) { s.reset(src, false) }

// ResetReverse prepares a traversal of the transpose graph from src, so the
// reported distances are d(v, src) in the original graph. For undirected
// graphs this is identical to Reset.
func (s *Search) ResetReverse(src int32) { s.reset(src, true) }

func (s *Search) reset(src int32, reverse bool) {
	s.q.Reset()
	s.reverse = reverse
	if reverse {
		s.cur = s.rev
	} else {
		s.cur = s.fwd
	}
	s.settled = 0
	s.q.Push(src, 0)
	if !s.lite {
		s.parent[src] = -1
	}
}

// Pop settles and returns the nearest unsettled node without relaxing its
// out-arcs. Call Expand to continue the search through it, or skip Expand to
// prune its (shortest-path tree) subtree. ok is false when the frontier is
// exhausted.
func (s *Search) Pop() (v int32, dist float64, ok bool) {
	if s.q.Len() == 0 {
		return -1, 0, false
	}
	v, dist = s.q.PopMin()
	s.settled++
	if !s.lite {
		if p := s.parent[v]; p >= 0 {
			s.depth[v] = s.depth[p] + 1
		} else {
			s.depth[v] = 0
		}
	}
	return v, dist, true
}

// PopExpandBounded fuses Pop with ExpandBounded for the rank-refinement
// inner loop, where every settled node is expanded immediately and the
// per-node cost of two exported calls is measurable. The returned node has
// already been expanded; a caller that decides to stop after inspecting it
// simply abandons the search (the one extra expansion is harmless — the
// queue is reset before reuse, and with maxDist set to the refinement
// cutoff most of its relaxations are dropped anyway).
func (s *Search) PopExpandBounded(maxDist float64) (v int32, dist float64, ok bool) {
	if s.q.Len() == 0 {
		return -1, 0, false
	}
	v, dist = s.q.PopMin()
	s.settled++
	if c := s.cur; c != nil && s.lite {
		// Hottest variant: packed arcs, no tree bookkeeping.
		for _, a := range c.Arcs(v) {
			nd := dist + a.W
			if nd > maxDist {
				continue
			}
			s.q.Push(a.To, nd)
		}
		return v, dist, true
	}
	if !s.lite {
		if p := s.parent[v]; p >= 0 {
			s.depth[v] = s.depth[p] + 1
		} else {
			s.depth[v] = 0
		}
	}
	s.ExpandBounded(v, dist, maxDist)
	return v, dist, true
}

// Expand relaxes the out-arcs of a node previously returned by Pop, where
// dist is the distance Pop reported for it.
func (s *Search) Expand(v int32, dist float64) {
	if c := s.cur; c != nil {
		if s.lite {
			for _, a := range c.Arcs(v) {
				s.q.Push(a.To, dist+a.W)
			}
			return
		}
		for _, a := range c.Arcs(v) {
			if s.q.Push(a.To, dist+a.W) {
				s.parent[a.To] = v
			}
		}
		return
	}
	var ts []int32
	var ws []float64
	if s.reverse {
		ts, ws = s.g.RNeighbors(v)
	} else {
		ts, ws = s.g.Neighbors(v)
	}
	if s.lite {
		for i, t := range ts {
			s.q.Push(t, dist+ws[i])
		}
		return
	}
	for i, t := range ts {
		if s.q.Push(t, dist+ws[i]) {
			s.parent[t] = v
		}
	}
}

// Reaches reports whether some out-arc of v leads to a node the
// traversal has not reached yet: whether Expand(v, ...) would make v the
// first shortest-path-tree parent of some node. It only reads.
func (s *Search) Reaches(v int32) bool {
	if c := s.cur; c != nil {
		for _, a := range c.Arcs(v) {
			if !s.q.Seen(a.To) {
				return true
			}
		}
		return false
	}
	ts, _ := s.g.Neighbors(v)
	if s.reverse {
		ts, _ = s.g.RNeighbors(v)
	}
	for _, t := range ts {
		if !s.q.Seen(t) {
			return true
		}
	}
	return false
}

// ExpandBounded relaxes the out-arcs of v but drops relaxations whose
// tentative distance exceeds maxDist. Rank refinement uses this with
// maxDist = d(p, q) (known from the SDS-tree): nodes farther than the
// refinement target can never settle before it, so their queue entries are
// pure overhead (Algorithm 2, line 13 of the paper). A dropped node is
// re-offered if a shorter path to it is found later, so settle order below
// maxDist is unaffected.
func (s *Search) ExpandBounded(v int32, dist, maxDist float64) {
	if c := s.cur; c != nil {
		if s.lite {
			for _, a := range c.Arcs(v) {
				nd := dist + a.W
				if nd > maxDist {
					continue
				}
				s.q.Push(a.To, nd)
			}
			return
		}
		for _, a := range c.Arcs(v) {
			nd := dist + a.W
			if nd > maxDist {
				continue
			}
			if s.q.Push(a.To, nd) {
				s.parent[a.To] = v
			}
		}
		return
	}
	var ts []int32
	var ws []float64
	if s.reverse {
		ts, ws = s.g.RNeighbors(v)
	} else {
		ts, ws = s.g.Neighbors(v)
	}
	if s.lite {
		for i, t := range ts {
			nd := dist + ws[i]
			if nd > maxDist {
				continue
			}
			s.q.Push(t, nd)
		}
		return
	}
	for i, t := range ts {
		nd := dist + ws[i]
		if nd > maxDist {
			continue
		}
		if s.q.Push(t, nd) {
			s.parent[t] = v
		}
	}
}

// Next settles the nearest unsettled node and relaxes its out-arcs
// (Pop followed by Expand).
func (s *Search) Next() (v int32, dist float64, ok bool) {
	v, dist, ok = s.Pop()
	if ok {
		s.Expand(v, dist)
	}
	return v, dist, ok
}

// Settled reports whether v has been settled in the current run. This is
// on the hot path of every refinement's settle-log application, so it is a
// single stamped-array read (pqueue.Popped) rather than Seen && !Contains.
func (s *Search) Settled(v int32) bool { return s.q.Popped(v) }

// Reached reports whether v has been touched (settled or queued).
func (s *Search) Reached(v int32) bool { return s.q.Seen(v) }

// SettledCount returns the number of nodes settled so far.
func (s *Search) SettledCount() int { return s.settled }

// Dist returns the distance of v: final if v is settled, tentative if
// queued. ok is false when v has not been reached.
func (s *Search) Dist(v int32) (float64, bool) {
	if !s.q.Seen(v) {
		return 0, false
	}
	return s.q.Priority(v), true
}

// Parent returns v's predecessor on its current shortest path, or -1 for
// the source. Only meaningful when Reached(v), and never for a NewLite
// search (lite searches do not track the shortest-path tree).
func (s *Search) Parent(v int32) int32 { return s.parent[v] }

// Depth returns v's hop depth in the shortest-path tree (source = 0). Only
// meaningful once v is settled, and never for a NewLite search.
func (s *Search) Depth(v int32) int32 { return s.depth[v] }

// Frontier returns the number of queued (not yet settled) nodes.
func (s *Search) Frontier() int { return s.q.Len() }

// Cutoff inflates a shortest-path distance by a relative epsilon for use as
// an ExpandBounded bound. Floating-point addition is not associative: a
// path summed source-to-target can round differently from the same path
// summed target-to-source, so a cutoff taken verbatim from a reverse-graph
// traversal can be one ulp short of the forward-summed distance and drop
// the final push to the target. Inflating the cutoff only admits a few
// extra frontier nodes; it never changes settle order below the bound.
func Cutoff(d float64) float64 { return d + d*1e-9 }

// Result is a settled node together with its shortest-path distance.
type Result struct {
	Node int32
	Dist float64
}

// Distance runs Dijkstra from src until dst settles and returns d(src, dst).
// ok is false when dst is unreachable.
func Distance(s *Search, src, dst int32) (float64, bool) {
	s.Reset(src)
	for {
		v, d, more := s.Next()
		if !more {
			return math.Inf(1), false
		}
		if v == dst {
			return d, true
		}
	}
}

// KNN returns the k nearest nodes to src (excluding src itself) in
// nondecreasing distance order, fewer if the reachable component is smaller.
// Ties are broken by node id (smaller first), consistently with the rest of
// the repository.
func KNN(s *Search, src int32, k int) []Result {
	s.Reset(src)
	out := make([]Result, 0, k)
	for len(out) < k {
		v, d, ok := s.Next()
		if !ok {
			break
		}
		if v == src {
			continue
		}
		out = append(out, Result{Node: v, Dist: d})
	}
	return out
}

// RankedResult is a settled node with its distance and tie-aware rank:
// Rank = 1 + |{p : d(src,p) < d(src,node)}|, per Definition 1 of the paper,
// so equidistant nodes share a rank.
type RankedResult struct {
	Node int32
	Dist float64
	Rank int32
}

// NearestWithRanks settles up to m nodes from src (excluding src) and
// returns them in settle order with tie-aware ranks. It is the
// precomputation primitive for the hub index (Section 5.2).
func NearestWithRanks(s *Search, src int32, m int) []RankedResult {
	s.Reset(src)
	out := make([]RankedResult, 0, m)
	strictBelow := 0
	level := math.Inf(-1)
	settledOthers := 0
	for len(out) < m {
		v, d, ok := s.Next()
		if !ok {
			break
		}
		if v == src {
			continue
		}
		if d > level {
			strictBelow = settledOthers
			level = d
		}
		settledOthers++
		out = append(out, RankedResult{Node: v, Dist: d, Rank: int32(strictBelow + 1)})
	}
	return out
}

// AllDistances runs a full SSSP from src and fills dist (length >= g.N())
// with d(src, v), using +Inf for unreachable nodes. It returns the number of
// reached nodes.
func AllDistances(s *Search, src int32, dist []float64) int {
	inf := math.Inf(1)
	for i := range dist[:s.g.N()] {
		dist[i] = inf
	}
	s.Reset(src)
	reached := 0
	for {
		v, d, ok := s.Next()
		if !ok {
			return reached
		}
		dist[v] = d
		reached++
	}
}
