package graph

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// loaderEdgeCases are text-format graphs exercising the loader paths that
// feed CSR construction: duplicate edges (with and without dedupe
// semantics — ReadText keeps parallel edges), self-loops, zero-weight
// edges, and isolated vertices (declared by the nodes header but never
// referenced by an edge).
var loaderEdgeCases = map[string]string{
	"duplicate-edges": `undirected
nodes 4
0 1 2.0
0 1 2.0
1 2 1.0
`,
	"self-loops": `directed
nodes 3
0 0 1.0
0 1 2.0
1 1 0.5
`,
	"zero-weight": `undirected
nodes 4
0 1 0
1 2 0
2 3 1.5
`,
	"isolated-vertices": `undirected
nodes 6
1 2 1.0
4 1 2.5
`,
	"directed-mixed": `directed
nodes 5
0 1 1.0
1 0 2.0
2 2 0
3 0 0.25
0 3 0.25
`,
}

// TestPackedMatchesAdjacency asserts, for every loader edge case, that the
// packed CSR views reproduce the adjacency slices arc for arc, in order,
// in both orientations.
func TestPackedMatchesAdjacency(t *testing.T) {
	for name, text := range loaderEdgeCases {
		t.Run(name, func(t *testing.T) {
			g, err := ReadText(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			assertPackedMatches(t, g)
		})
	}
}

func assertPackedMatches(t *testing.T, g *Graph) {
	t.Helper()
	fwd, rev := g.Packed()
	if fwd == nil || rev == nil {
		t.Fatal("Packed returned nil for an int32-sized graph")
	}
	if !g.Directed() && fwd != rev {
		t.Error("undirected reverse view does not alias the forward view")
	}
	if fwd.N() != g.N() {
		t.Fatalf("packed N=%d, graph N=%d", fwd.N(), g.N())
	}
	for v := int32(0); int(v) < g.N(); v++ {
		ts, ws := g.Neighbors(v)
		arcs := fwd.Arcs(v)
		if len(arcs) != len(ts) || fwd.Degree(v) != len(ts) {
			t.Fatalf("node %d: packed degree %d, adjacency %d", v, len(arcs), len(ts))
		}
		for i, a := range arcs {
			if a.To != ts[i] || a.W != ws[i] {
				t.Fatalf("node %d arc %d: packed (%d,%g), adjacency (%d,%g)", v, i, a.To, a.W, ts[i], ws[i])
			}
		}
		rts, rws := g.RNeighbors(v)
		rarcs := rev.Arcs(v)
		if len(rarcs) != len(rts) {
			t.Fatalf("node %d: packed in-degree %d, adjacency %d", v, len(rarcs), len(rts))
		}
		for i, a := range rarcs {
			if a.To != rts[i] || a.W != rws[i] {
				t.Fatalf("node %d reverse arc %d: packed (%d,%g), adjacency (%d,%g)", v, i, a.To, a.W, rts[i], rws[i])
			}
		}
	}
}

// TestPackedRoundTrip fuzz-style: random graphs (directed and undirected,
// with self-loops, duplicate and zero-weight edges, isolated vertices) are
// packed and then unpacked back into adjacency form, which must match the
// original arrays exactly — adjacency → CSR → adjacency is lossless.
func TestPackedRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := rng.Intn(2) == 0
		n := 1 + rng.Intn(40)
		b := NewBuilder(directed)
		b.SetDedupe(rng.Intn(2) == 0)
		b.EnsureNodes(n) // some vertices stay isolated
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			w := float64(rng.Intn(5)) / 2 // zero weights and ties included
			if directed || u != v || rng.Intn(2) == 0 {
				b.MustAddEdge(u, v, w)
			}
		}
		g := b.Finalize()
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertPackedMatches(t, g)

		// Unpack: rebuild int64 offsets + parallel arrays from the packed
		// view and compare with the originals.
		fwd, _ := g.Packed()
		offsets := make([]int64, len(g.offsets))
		targets := make([]int32, 0, len(g.targets))
		weights := make([]float64, 0, len(g.weights))
		for v := 0; v < fwd.N(); v++ {
			for _, a := range fwd.Arcs(int32(v)) {
				targets = append(targets, a.To)
				weights = append(weights, a.W)
			}
			offsets[v+1] = int64(len(targets))
		}
		if len(targets) != len(g.targets) {
			t.Fatalf("seed %d: round trip arc count %d, want %d", seed, len(targets), len(g.targets))
		}
		for i := range offsets {
			if offsets[i] != g.offsets[i] {
				t.Fatalf("seed %d: offsets diverge at %d", seed, i)
			}
		}
		for i := range targets {
			if targets[i] != g.targets[i] || weights[i] != g.weights[i] {
				t.Fatalf("seed %d: arc %d diverges: (%d,%g) vs (%d,%g)",
					seed, i, targets[i], weights[i], g.targets[i], g.weights[i])
			}
		}
	}
}

// TestPackedIdempotent: Packed is built once and shared; CSRBytes is 0
// before the first Packed call and stable afterwards.
func TestPackedIdempotent(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 2)
	g := b.Finalize()
	if got := g.CSRBytes(); got != 0 {
		t.Errorf("CSRBytes before Packed = %d, want 0 (views are lazy)", got)
	}
	f1, r1 := g.Packed()
	f2, r2 := g.Packed()
	if f1 != f2 || r1 != r2 {
		t.Error("Packed rebuilt the views on a second call")
	}
	want := f1.Bytes() // undirected: reverse aliases forward
	if got := g.CSRBytes(); got != want {
		t.Errorf("CSRBytes = %d, want %d", got, want)
	}
	if f1.NumArcs() != 4 { // undirected edges count twice
		t.Errorf("NumArcs = %d, want 4", f1.NumArcs())
	}
}

// TestPackedGraphIsCollected pins that a packed graph does not outlive
// its last reference: the memoized CSR views belong to the graph, so a
// live store that swaps in a rebuilt graph releases the old one.
func TestPackedGraphIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		b := NewBuilder(true)
		b.EnsureNodes(64)
		for v := NodeID(1); v < 64; v++ {
			b.MustAddEdge(v-1, v, float64(v))
		}
		g := b.Finalize()
		if fwd, _ := g.Packed(); fwd == nil {
			t.Fatal("Packed returned nil")
		}
		runtime.AddCleanup(g, func(ch chan struct{}) { close(ch) }, collected)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("a dropped packed graph was never collected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPackedEmptyGraph covers the zero-node and zero-edge corners.
func TestPackedEmptyGraph(t *testing.T) {
	g := NewBuilder(true).Finalize()
	fwd, rev := g.Packed()
	if fwd == nil || rev == nil {
		t.Fatal("Packed returned nil for an empty graph")
	}
	if fwd.N() != 0 || fwd.NumArcs() != 0 {
		t.Errorf("empty graph packed to N=%d arcs=%d", fwd.N(), fwd.NumArcs())
	}
}
