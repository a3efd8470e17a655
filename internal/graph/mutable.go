package graph

import (
	"errors"
	"fmt"
	"math"
)

// Mutation errors, designed for errors.Is dispatch at serving boundaries
// (the live store wraps them into its invalid-argument family so /v1/mutate
// rejects them with 400s instead of 500s).
var (
	// ErrEdgeExists reports an InsertEdge for a pair already present.
	ErrEdgeExists = errors.New("graph: edge already exists")
	// ErrEdgeNotFound reports a DeleteEdge/SetWeight for an absent pair.
	ErrEdgeNotFound = errors.New("graph: edge not found")
	// ErrAmbiguousEdge reports a DeleteEdge/SetWeight touching a pair the
	// seed graph recorded more than once (parallel edges): the mutation
	// cannot tell which copy it means. The mutation API itself never
	// creates parallel edges.
	ErrAmbiguousEdge = errors.New("graph: parallel edges make the mutation ambiguous")
	// ErrBadMutation reports a structurally invalid mutation (unknown op,
	// out-of-range endpoint, invalid weight, non-positive vertex count).
	ErrBadMutation = errors.New("graph: invalid mutation")
)

// MutationOp selects what a Mutation does.
type MutationOp uint8

const (
	// MutInsertEdge adds edge (U, V) with Weight; the pair must be absent.
	MutInsertEdge MutationOp = iota + 1
	// MutDeleteEdge removes edge (U, V); the pair must be present.
	MutDeleteEdge
	// MutSetWeight changes the weight of existing edge (U, V) to Weight.
	MutSetWeight
	// MutAddVertex appends Count fresh isolated vertices (Count <= 0 means
	// one). U, V, and Weight are ignored.
	MutAddVertex
)

// String returns the wire name of the op (shared with internal/api).
func (op MutationOp) String() string {
	switch op {
	case MutInsertEdge:
		return "insert_edge"
	case MutDeleteEdge:
		return "delete_edge"
	case MutSetWeight:
		return "set_weight"
	case MutAddVertex:
		return "add_vertex"
	}
	return fmt.Sprintf("MutationOp(%d)", uint8(op))
}

// Mutation is one live-graph update. For undirected graphs (U, V) is the
// unordered pair {U, V}.
type Mutation struct {
	Op     MutationOp
	U, V   NodeID
	Weight float64
	// Count is the number of vertices MutAddVertex appends (<= 0 means 1).
	Count int
}

// InsertEdge returns an edge-insertion mutation.
func InsertEdge(u, v NodeID, w float64) Mutation {
	return Mutation{Op: MutInsertEdge, U: u, V: v, Weight: w}
}

// DeleteEdge returns an edge-deletion mutation.
func DeleteEdge(u, v NodeID) Mutation {
	return Mutation{Op: MutDeleteEdge, U: u, V: v}
}

// SetWeight returns a weight-change mutation.
func SetWeight(u, v NodeID, w float64) Mutation {
	return Mutation{Op: MutSetWeight, U: u, V: v, Weight: w}
}

// AddVertices returns a mutation appending count isolated vertices.
func AddVertices(count int) Mutation {
	return Mutation{Op: MutAddVertex, Count: count}
}

// pairKey normalizes an edge pair: undirected pairs store the smaller
// endpoint first so {u, v} and {v, u} address the same edge.
type pairKey struct{ u, v NodeID }

func (s *EdgeStore) key(u, v NodeID) pairKey {
	if !s.directed && u > v {
		u, v = v, u
	}
	return pairKey{u, v}
}

// EdgeStore is the mutable edge overlay behind a live graph: the full
// logical edge list plus a pair index, supporting edge insert/delete,
// weight change, and vertex addition. It is the source of truth a live
// backend rebuilds its immutable CSR Graph from — Build produces arrays
// byte-identical to a from-scratch Builder over the same edge multiset,
// because CSR adjacency is sorted by (target, weight) and therefore
// independent of edge order.
//
// Not safe for concurrent use; the live store serializes mutation batches.
type EdgeStore struct {
	directed bool
	n        int
	edges    []Edge
	pos      map[pairKey][]int32 // edge positions per normalized pair
}

// NewEdgeStore captures g's logical edges into a mutable store.
func NewEdgeStore(g *Graph) *EdgeStore {
	s := &EdgeStore{
		directed: g.Directed(),
		n:        g.N(),
		edges:    make([]Edge, 0, g.M()),
		pos:      make(map[pairKey][]int32, g.M()),
	}
	g.Edges(func(e Edge) bool {
		s.addRaw(e)
		return true
	})
	return s
}

// addRaw appends an edge without validation (seeding and clone paths).
func (s *EdgeStore) addRaw(e Edge) {
	k := s.key(e.From, e.To)
	s.pos[k] = append(s.pos[k], int32(len(s.edges)))
	s.edges = append(s.edges, e)
}

// N returns the node count.
func (s *EdgeStore) N() int { return s.n }

// M returns the logical edge count.
func (s *EdgeStore) M() int { return len(s.edges) }

// Directed reports edge orientation.
func (s *EdgeStore) Directed() bool { return s.directed }

// Clone returns a deep copy. Mutation batches apply against a clone so a
// mid-batch validation failure leaves the store untouched.
func (s *EdgeStore) Clone() *EdgeStore {
	cp := &EdgeStore{
		directed: s.directed,
		n:        s.n,
		edges:    append([]Edge(nil), s.edges...),
		pos:      make(map[pairKey][]int32, len(s.pos)),
	}
	for k, v := range s.pos {
		cp.pos[k] = append([]int32(nil), v...)
	}
	return cp
}

// checkEndpoints validates that both endpoints exist.
func (s *EdgeStore) checkEndpoints(u, v NodeID) error {
	if u < 0 || int(u) >= s.n || v < 0 || int(v) >= s.n {
		return fmt.Errorf("edge (%d,%d) references unknown node (n=%d): %w", u, v, s.n, ErrBadMutation)
	}
	return nil
}

func checkWeight(w float64) error {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("invalid weight %g: %w", w, ErrBadMutation)
	}
	return nil
}

// uniquePos resolves a pair to its single edge position, with the typed
// not-found/ambiguous errors.
func (s *EdgeStore) uniquePos(u, v NodeID) (int32, error) {
	ps := s.pos[s.key(u, v)]
	switch len(ps) {
	case 0:
		return 0, fmt.Errorf("edge (%d,%d): %w", u, v, ErrEdgeNotFound)
	case 1:
		return ps[0], nil
	}
	return 0, fmt.Errorf("edge (%d,%d) recorded %d times: %w", u, v, len(ps), ErrAmbiguousEdge)
}

// Apply performs one mutation. On error the store is unchanged.
func (s *EdgeStore) Apply(m Mutation) error {
	switch m.Op {
	case MutInsertEdge:
		if err := s.checkEndpoints(m.U, m.V); err != nil {
			return err
		}
		if err := checkWeight(m.Weight); err != nil {
			return err
		}
		if len(s.pos[s.key(m.U, m.V)]) > 0 {
			return fmt.Errorf("edge (%d,%d): %w", m.U, m.V, ErrEdgeExists)
		}
		s.addRaw(Edge{From: m.U, To: m.V, Weight: m.Weight})
		return nil
	case MutDeleteEdge:
		if err := s.checkEndpoints(m.U, m.V); err != nil {
			return err
		}
		p, err := s.uniquePos(m.U, m.V)
		if err != nil {
			return err
		}
		s.removeAt(p)
		return nil
	case MutSetWeight:
		if err := s.checkEndpoints(m.U, m.V); err != nil {
			return err
		}
		if err := checkWeight(m.Weight); err != nil {
			return err
		}
		p, err := s.uniquePos(m.U, m.V)
		if err != nil {
			return err
		}
		s.edges[p].Weight = m.Weight
		return nil
	case MutAddVertex:
		count := m.Count
		if count <= 0 {
			count = 1
		}
		if s.n+count > math.MaxInt32 {
			return fmt.Errorf("vertex count %d+%d overflows node ids: %w", s.n, count, ErrBadMutation)
		}
		s.n += count
		return nil
	}
	return fmt.Errorf("op %d: %w", m.Op, ErrBadMutation)
}

// removeAt deletes the edge at position p by swap-remove, fixing up the
// pair index of the edge moved into the hole. Edge order does not matter:
// Build sorts adjacency by (target, weight) regardless.
func (s *EdgeStore) removeAt(p int32) {
	e := s.edges[p]
	k := s.key(e.From, e.To)
	s.dropPos(k, p)
	last := int32(len(s.edges) - 1)
	if p != last {
		moved := s.edges[last]
		s.edges[p] = moved
		mk := s.key(moved.From, moved.To)
		s.dropPos(mk, last)
		s.pos[mk] = append(s.pos[mk], p)
	}
	s.edges = s.edges[:last]
}

// dropPos removes one position from a pair's position list.
func (s *EdgeStore) dropPos(k pairKey, p int32) {
	ps := s.pos[k]
	for i, q := range ps {
		if q == p {
			ps[i] = ps[len(ps)-1]
			ps = ps[:len(ps)-1]
			break
		}
	}
	if len(ps) == 0 {
		delete(s.pos, k)
	} else {
		s.pos[k] = ps
	}
}

// Build materializes the current edge set as an immutable Graph,
// byte-identical to a from-scratch Builder over the same edges.
func (s *EdgeStore) Build() *Graph {
	b := NewBuilder(s.directed)
	b.EnsureNodes(s.n)
	for _, e := range s.edges {
		b.MustAddEdge(e.From, e.To, e.Weight)
	}
	return b.Finalize()
}

// WeightOnly reports whether every mutation in the batch is a weight
// change — the precondition for the in-place CSR patch path (PatchWeight):
// topology is untouched, so adjacency spans, packing, and node count all
// stay valid.
func WeightOnly(ms []Mutation) bool {
	for _, m := range ms {
		if m.Op != MutSetWeight {
			return false
		}
	}
	return true
}

// PatchWeight updates the weight of edge (u, v) in place in g's CSR
// arrays (forward, transpose, and any built packed views), producing
// arrays byte-identical to a rebuild with the new weight. It is only
// sound when the pair maps to a single logical edge (EdgeStore.Apply
// validates that before calling) — adjacency is sorted by (target,
// weight), so an arc whose target is unique in its span keeps its
// position under any weight.
//
// Callers must guarantee exclusive access: no traversal may be running
// (the live store's epoch barrier holds every reader out while patching).
func (g *Graph) PatchWeight(u, v NodeID, w float64) {
	g.patchArcs(g.offsets, g.targets, g.weights, u, v, w)
	if g.directed {
		g.patchArcs(g.toffsets, g.ttargets, g.tweights, v, u, w)
	} else if u != v {
		// Undirected mirror arc; transpose arrays alias forward ones.
		g.patchArcs(g.offsets, g.targets, g.weights, v, u, w)
	}
	if p := &g.pk; p.fwd != nil {
		patchPackedArcs(p.fwd, u, v, w)
		if u != v || g.directed {
			patchPackedArcs(p.rev, v, u, w)
		}
	}
}

// patchArcs rewrites every arc u->v in one CSR orientation (multiple arcs
// only occur for undirected self-loops, whose two parity arcs are
// identical).
func (g *Graph) patchArcs(offsets []int64, targets []int32, weights []float64, u, v NodeID, w float64) {
	for i := offsets[u]; i < offsets[u+1]; i++ {
		if targets[i] == v {
			weights[i] = w
		}
	}
}

func patchPackedArcs(c *CSR, u, v NodeID, w float64) {
	for i := c.offsets[u]; i < c.offsets[u+1]; i++ {
		if c.arcs[i].To == v {
			c.arcs[i].W = w
		}
	}
}
