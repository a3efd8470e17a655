package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/rank"
)

// filterRank returns the prefix of a canonical answer with Rank <= r.
func filterRank(es []rank.Entry, r int32) []rank.Entry {
	var out []rank.Entry
	for _, e := range es {
		if e.Rank <= r {
			out = append(out, e)
		}
	}
	return out
}

// TestMaxRankIsFilteredPrefix checks the rank-ceiling contract for all five
// engines, unmasked and under 2- and 3-way candidate masks: a query under
// ceiling R answers exactly the unbounded canonical answer filtered to
// Rank <= R, stamps MaxRank, and certifies a floor that never claims the
// candidate class was exhausted when the ceiling cut it short.
func TestMaxRankIsFilteredPrefix(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"dblp":           gen.DBLPLike(gen.DBLPLikeParams{Nodes: 240, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 3}),
		"tie-undirected": tieHeavyGraph(17, false),
		"tie-directed":   tieHeavyGraph(18, true),
	}
	const maxK = 10
	for name, g := range graphs {
		labels, err := hub.BuildLabels(g, hub.Order(g, hub.DegreeFirst, g.N(), hub.Options{}), 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(g.N())))
		for _, shards := range []int{1, 2, 3} {
			for s := 0; s < shards; s++ {
				var mask []bool
				if shards > 1 {
					mask = make([]bool, g.N())
					for v := range mask {
						mask[v] = v%shards == s
					}
				}
				opts := Options{Candidates: mask, Labels: labels}
				ref := NewEngine(g, Options{Candidates: mask})
				e := NewEngine(g, opts)
				e.SetIndex(buildTestIndex(t, g, maxK, mask, nil))
				for q := int32(0); q < int32(g.N()); q += 5 {
					k := []int{1, 4, maxK}[rng.Intn(3)]
					want, err := ref.Query(Naive, q, k)
					if err != nil {
						t.Fatal(err)
					}
					r := int32(1 + rng.Intn(int(want.KRank())+3))
					ctx := WithMaxRank(context.Background(), r)
					exp := filterRank(want.Entries, r)
					for _, a := range []Algorithm{Naive, Static, Dynamic, Indexed, HubLabel} {
						got, err := e.QueryContext(ctx, a, q, k)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s shard %d/%d %v q=%d k=%d R=%d", name, s, shards, a, q, k, r)
						if !entriesEqual(got.Entries, exp) {
							t.Fatalf("%s: %v, want %v (unbounded %v)", label, got.Entries, exp, want.Entries)
						}
						if got.MaxRank != r {
							t.Fatalf("%s: MaxRank %d, want %d", label, got.MaxRank, r)
						}
						if f := got.Floor(); len(got.Entries) < k && (f.Exhausted || f.Rank != r || f.Node != math.MaxInt32) {
							t.Fatalf("%s: short bounded result certified %+v", label, f)
						}
					}
				}
			}
		}
	}
}

// TestMaxRankBatchAndPool runs the ceiling through a pool's single and
// batch paths (the batch executor replays settle logs against the capped
// kRank) and checks that a zero ceiling leaves a query unbounded.
func TestMaxRankBatchAndPool(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 7})
	mask := make([]bool, g.N())
	for v := range mask {
		mask[v] = v%2 == 1
	}
	pool := NewPool(g, Options{Candidates: mask}, 2)
	var queries []int32
	for q := int32(0); q < int32(g.N()); q += 11 {
		queries = append(queries, q)
	}
	const k, r = 8, 12
	want, err := pool.QueryMany(Dynamic, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithMaxRank(context.Background(), r)
	got, err := pool.QueryManyContext(ctx, Dynamic, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		exp := filterRank(want[i].Entries, r)
		if !entriesEqual(got[i].Entries, exp) {
			t.Fatalf("batch q=%d: %v, want %v", q, got[i].Entries, exp)
		}
		one, err := pool.QueryContext(ctx, Dynamic, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !entriesEqual(one.Entries, exp) {
			t.Fatalf("single q=%d: %v, want %v", q, one.Entries, exp)
		}
		again, err := pool.QueryContext(WithMaxRank(context.Background(), 0), Dynamic, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if again.MaxRank != 0 || !entriesEqual(again.Entries, want[i].Entries) {
			t.Fatalf("zero ceiling q=%d: %v (MaxRank %d), want %v", q, again.Entries, again.MaxRank, want[i].Entries)
		}
	}
}
