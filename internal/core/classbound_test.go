package core

import (
	"fmt"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/ridx"
)

// buildTestIndex returns a fresh serial index for g over the given
// candidate and counted classes. Indexed queries mutate their index, so a
// test that compares several engines clones it once per engine.
func buildTestIndex(t *testing.T, g *graph.Graph, maxK int, candidates, counted []bool) *ridx.SerialIndex {
	t.Helper()
	ix, err := ridx.Build(g, ridx.BuildParams{
		Hubs:    hub.Select(g, hub.DegreeFirst, g.N()/10+1, hub.Options{Seed: 9}),
		M:       g.N() / 5,
		K:       maxK,
		Counted: counted, Candidates: candidates,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestMaskedEnginesMatchNaive checks every engine under candidate-only
// masks (the cluster's shard masks, where refineParent gives out-of-class
// nodes their own bound) against Naive with the same mask: Dynamic,
// Indexed, and HubLabel over a complete and a partial labeling.
func TestMaskedEnginesMatchNaive(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"dblp":           gen.DBLPLike(gen.DBLPLikeParams{Nodes: 240, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 3}),
		"tie-undirected": tieHeavyGraph(7, false),
		"tie-directed":   tieHeavyGraph(8, true),
	}
	const maxK = 10
	for name, g := range graphs {
		full, err := hub.BuildLabels(g, hub.Order(g, hub.DegreeFirst, g.N(), hub.Options{}), 2)
		if err != nil {
			t.Fatal(err)
		}
		partial, err := hub.BuildLabels(g, hub.Order(g, hub.DegreeFirst, g.N()/4+1, hub.Options{}), 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3} {
			for s := 0; s < shards; s++ {
				mask := make([]bool, g.N())
				for v := range mask {
					mask[v] = v%shards == s
				}
				ix := buildTestIndex(t, g, maxK, mask, nil)
				naive := NewEngine(g, Options{Candidates: mask})
				engines := []struct {
					label string
					algo  Algorithm
					e     *Engine
				}{
					{"dynamic", Dynamic, NewEngine(g, Options{Candidates: mask})},
					{"indexed", Indexed, NewEngine(g, Options{Candidates: mask})},
					{"hublabel/full", HubLabel, NewEngine(g, Options{Candidates: mask, Labels: full})},
					{"hublabel/partial", HubLabel, NewEngine(g, Options{Candidates: mask, Labels: partial})},
				}
				for _, en := range engines {
					if en.algo == Indexed {
						en.e.SetIndex(ix.Clone())
					}
				}
				for q := int32(0); q < int32(g.N()); q += 7 {
					for _, k := range []int{1, 4, maxK} {
						want, err := naive.Query(Naive, q, k)
						if err != nil {
							t.Fatal(err)
						}
						for _, en := range engines {
							got, err := en.e.Query(en.algo, q, k)
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("%s shard %d/%d %s q=%d k=%d", name, s, shards, en.label, q, k)
							if !entriesEqual(got.Entries, want.Entries) {
								t.Fatalf("%s: %v, naive %v", label, got.Entries, want.Entries)
							}
						}
					}
				}
			}
		}
	}
}

// TestMaskedIndexFeedbackStaysInClass runs Indexed queries under a
// candidate mask, where out-of-class nodes are refined for their bound
// (refineParent). Those refinements must never reach the index: a
// Reverse Rank Dictionary slot held by a source outside the class breaks
// the eviction argument behind the Check Dictionary prune (see
// ridx.BuildParams.Candidates).
func TestMaskedIndexFeedbackStaysInClass(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 400, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 5})
	mask := make([]bool, g.N())
	for v := range mask {
		mask[v] = v%2 == 0
	}
	const maxK = 10
	ix := buildTestIndex(t, g, maxK, mask, nil)
	e := NewEngine(g, Options{Candidates: mask})
	e.SetIndex(ix)
	e.SetTracing(true)
	ref := NewEngine(g, Options{Candidates: mask})
	classRefined := 0
	for _, k := range []int{3, maxK} {
		for q := int32(0); q < int32(g.N()); q += 7 {
			res, err := e.Query(Indexed, q, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Query(Dynamic, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !entriesEqual(res.Entries, want.Entries) {
				t.Fatalf("q=%d k=%d: Indexed %v, Dynamic %v", q, k, res.Entries, want.Entries)
			}
			for _, ev := range res.Trace {
				if ev.Action == TraceClassBound {
					classRefined++
				}
			}
		}
	}
	if classRefined == 0 {
		t.Fatal("no out-of-class node got its own bound; the test exercises nothing")
	}
	for x := int32(0); x < int32(g.N()); x++ {
		for _, en := range ix.Reverse(x) {
			if !mask[en.Node] {
				t.Fatalf("Reverse(%d) holds source %d, outside the candidate class", x, en.Node)
			}
		}
	}
}

// TestUnmaskedEngineHasNoPendingArray pins that the on-demand parent
// refinement costs unmasked engines nothing: no per-node array at all.
func TestUnmaskedEngineHasNoPendingArray(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 50, AttachPerNode: 3, Seed: 2})
	if e := NewEngine(g, Options{}); e.pend != nil {
		t.Fatal("unmasked engine allocated a pending array")
	}
	if e := NewEngine(g, Options{Counted: make([]bool, g.N())}); e.pend != nil {
		t.Fatal("counted-only engine allocated a pending array")
	}
	if e := NewEngine(g, Options{Candidates: make([]bool, g.N())}); e.pend == nil {
		t.Fatal("masked engine has no pending array")
	}
}
