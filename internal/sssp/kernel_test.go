package sssp

import (
	"strings"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/graph"
)

// kernelGraphs spans the shapes whose traversal the engines run: the
// loader edge cases (duplicates, self-loops, zero weights, isolated
// vertices) plus generated topologies.
func kernelGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{
		"dblp-like":     gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 4, Seed: 1}),
		"epinions-like": gen.EpinionsLike(gen.EpinionsLikeParams{Nodes: 300, OutPerNode: 4, BackEdgeProb: 0.3, Seed: 2}),
		"sparse":        gen.GNM(200, 300, false, 3),
	}
	for name, text := range map[string]string{
		"edge-cases": `directed
nodes 6
0 0 1.0
0 1 0
1 0 2.0
1 2 1.0
2 3 0
3 1 0.5
`,
		"isolated": `undirected
nodes 5
0 1 1.0
`,
	} {
		g, err := graph.ReadText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		gs[name] = g
	}
	return gs
}

// TestPackedKernelMatchesSlices runs full traversals over the packed CSR
// and the adjacency-slice kernels and asserts identical settle order,
// distances, and (for tree-tracking searches) parents and depths — the
// CSR port must answer exactly like the adjacency form on every loader
// edge case.
func TestPackedKernelMatchesSlices(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		t.Run(name, func(t *testing.T) {
			packed, slice := New(g), New(g)
			slice.DisablePacked()
			for src := int32(0); int(src) < g.N(); src++ {
				for _, reverse := range []bool{false, true} {
					if reverse {
						packed.ResetReverse(src)
						slice.ResetReverse(src)
					} else {
						packed.Reset(src)
						slice.Reset(src)
					}
					for {
						pv, pd, pok := packed.Next()
						sv, sd, sok := slice.Next()
						if pok != sok || pv != sv || pd != sd {
							t.Fatalf("src=%d reverse=%v: packed (%d,%g,%v), slices (%d,%g,%v)",
								src, reverse, pv, pd, pok, sv, sd, sok)
						}
						if !pok {
							break
						}
						if packed.Parent(pv) != slice.Parent(pv) || packed.Depth(pv) != slice.Depth(pv) {
							t.Fatalf("src=%d reverse=%v node=%d: packed tree (%d,%d), slices (%d,%d)",
								src, reverse, pv, packed.Parent(pv), packed.Depth(pv), slice.Parent(pv), slice.Depth(pv))
						}
					}
				}
			}
		})
	}
}

// TestLiteKernelMatches drives the refinement kernel (NewLite +
// PopExpandBounded) against the tree-tracking search and asserts identical
// settle sequences under a distance bound, on both kernel variants.
func TestLiteKernelMatches(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		t.Run(name, func(t *testing.T) {
			lite, full := NewLite(g), New(g)
			lites := NewLite(g)
			lites.DisablePacked()
			for src := int32(0); int(src) < g.N(); src++ {
				for _, bound := range []float64{0.5, 2.5, 1e18} {
					lite.Reset(src)
					full.Reset(src)
					lites.Reset(src)
					for {
						lv, ld, lok := lite.PopExpandBounded(bound)
						fv, fd, fok := full.PopExpandBounded(bound)
						sv, sd, sok := lites.PopExpandBounded(bound)
						if lok != fok || lv != fv || ld != fd || sok != fok || sv != fv || sd != fd {
							t.Fatalf("src=%d bound=%g: lite (%d,%g,%v), full (%d,%g,%v), lite-slices (%d,%g,%v)",
								src, bound, lv, ld, lok, fv, fd, fok, sv, sd, sok)
						}
						if !lok {
							break
						}
					}
				}
			}
		})
	}
}

// benchGraph is the kernel benchmark workload: large enough that the
// packed-vs-slice layout difference shows, small enough for -benchtime=100x
// CI runs.
func benchGraph() *graph.Graph {
	return gen.DBLPLike(gen.DBLPLikeParams{Nodes: 20000, AttachPerNode: 6, Seed: 42})
}

func runKernel(b *testing.B, s *Search, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset(int32(i % n))
		for {
			if _, _, ok := s.PopExpandBounded(1e18); !ok {
				break
			}
		}
	}
}

// BenchmarkKernelCSR / BenchmarkKernelAdjacency compare the packed and
// slice traversal kernels on identical full SSSP runs; CI pins GOGC=off
// and fixed iteration counts so the pair is comparable per-PR.
func BenchmarkKernelCSR(b *testing.B) {
	g := benchGraph()
	runKernel(b, New(g), g.N())
}

func BenchmarkKernelAdjacency(b *testing.B) {
	g := benchGraph()
	s := New(g)
	s.DisablePacked()
	runKernel(b, s, g.N())
}

// BenchmarkKernelCSRLite is the refinement configuration: packed arcs, no
// shortest-path-tree bookkeeping.
func BenchmarkKernelCSRLite(b *testing.B) {
	g := benchGraph()
	runKernel(b, NewLite(g), g.N())
}

// TestReachesPredictsFirstTouch checks Reaches against what Expand then
// does, on the packed and the slice kernels, forward and reverse: it
// reports true exactly when Expand touches a node the traversal had not
// reached before.
func TestReachesPredictsFirstTouch(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		for _, packed := range []bool{true, false} {
			for _, reverse := range []bool{false, true} {
				s := New(g)
				if !packed {
					s.DisablePacked()
				}
				if reverse {
					s.ResetReverse(0)
				} else {
					s.Reset(0)
				}
				for {
					v, d, ok := s.Pop()
					if !ok {
						break
					}
					before := make([]bool, g.N())
					for u := range before {
						before[u] = s.Reached(int32(u))
					}
					predicted := s.Reaches(v)
					s.Expand(v, d)
					touched := false
					for u, seen := range before {
						if !seen && s.Reached(int32(u)) {
							touched = true
						}
					}
					if predicted != touched {
						t.Fatalf("%s packed=%v reverse=%v node %d: Reaches %v, Expand reached a new node %v",
							name, packed, reverse, v, predicted, touched)
					}
				}
			}
		}
	}
}
