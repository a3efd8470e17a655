package cluster

import (
	"context"
	"sync"
	"testing"

	"rkranks/internal/core"
	"rkranks/internal/gen"
)

// TestShardWorkAmplification pins what a candidate mask costs: the summed
// rank refinements of a 2-shard cluster stay within 4x a single engine's
// over the same queries, and the merged answers stay byte-identical. A
// shard that never refines out-of-class nodes hands their SDS-tree
// children only the grandparent's bound, and the sum then grows to
// several times that.
func TestShardWorkAmplification(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 1500, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 11})
	single := core.NewEngine(g, core.Options{})
	c, err := NewLocal(g, core.Options{}, Modulo{}, 2, 1, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{10, 20} {
		var one, sharded int
		for q := int32(0); q < int32(g.N()); q += 75 {
			want, err := single.Query(core.Dynamic, q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Query(core.Dynamic, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !entriesEqual(got.Entries, want.Entries) {
				t.Fatalf("q=%d k=%d: cluster %v, single engine %v", q, k, got.Entries, want.Entries)
			}
			one += want.Stats.Refinements
			sharded += got.Stats.Refinements
		}
		ratio := float64(sharded) / float64(one)
		t.Logf("k=%d: single engine %d refinements, 2 shards %d (%.2fx)", k, one, sharded, ratio)
		if ratio > 4 {
			t.Errorf("k=%d: 2 shards did %.2fx a single engine's refinements (%d vs %d), want <= 4x", k, ratio, sharded, one)
		}
	}
}

// TestShardTreeWork pins that a masked shard bounds its out-of-class
// SDS-tree nodes when they are dequeued: each shard of a 2-shard cluster,
// asked at full k, settles at most twice the tree nodes one unmasked
// engine does over the same queries. A shard that expands every
// out-of-class node before bounding it settles several times that.
func TestShardTreeWork(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 1500, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 11})
	single := core.NewEngine(g, core.Options{})
	const shards = 2
	engines := make([]*core.Engine, shards)
	for s := range engines {
		mask, err := ShardMask(g, Modulo{}, shards, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		engines[s] = core.NewEngine(g, core.Options{Candidates: mask})
	}
	for _, k := range []int{10, 20} {
		one := 0
		perShard := make([]int, shards)
		for q := int32(0); q < int32(g.N()); q += 75 {
			want, err := single.Query(core.Dynamic, q, k)
			if err != nil {
				t.Fatal(err)
			}
			one += want.Stats.TreeSettled
			for s, e := range engines {
				got, err := e.Query(core.Dynamic, q, k)
				if err != nil {
					t.Fatal(err)
				}
				perShard[s] += got.Stats.TreeSettled
			}
		}
		for s, settled := range perShard {
			ratio := float64(settled) / float64(one)
			t.Logf("k=%d shard %d/%d: %d tree settles, single engine %d (%.2fx)", k, s, shards, settled, one, ratio)
			if ratio > 2 {
				t.Errorf("k=%d: shard %d settled %.2fx a single engine's tree nodes (%d vs %d), want <= 2x", k, s, ratio, settled, one)
			}
		}
	}
}

// roundRecorder wraps a shard backend and records the refinements of
// the calls it serves at full k: with a first round below k, exactly the
// second-round calls.
type roundRecorder struct {
	ShardBackend
	k     int
	mu    sync.Mutex
	calls map[int32]int // query node -> summed round-2 refinements
	n     int
}

func (r *roundRecorder) Query(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	res, err := r.ShardBackend.Query(ctx, a, q, k)
	if err == nil && k == r.k {
		r.mu.Lock()
		r.calls[q] += res.Stats.Refinements
		r.n++
		r.mu.Unlock()
	}
	return res, err
}

// TestRoundTwoRankCeiling forces escalations and pins the round-2 rank
// ceiling: the merged round-1 k-th rank caps each escalated shard's kRank
// from its first pop, so a round-2 shard query costs at most 1.25x the
// refinements one unmasked engine spends on the same query, and the
// merged answers stay byte-identical. Without the ceiling a shard's own
// kRank over its 1/P class is far weaker than one node's.
func TestRoundTwoRankCeiling(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 1500, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 11})
	single := core.NewEngine(g, core.Options{})
	const shards = 2
	// Each first round merges exactly k entries, so every query has a
	// ceiling and at least one shard's floor fails to clear it.
	for _, tc := range []struct{ k, firstRoundK int }{{2, 1}, {10, 5}} {
		recs := make([]*roundRecorder, shards)
		backends := make([]ShardBackend, shards)
		for s := range backends {
			ls, err := NewLocalShard(g, core.Options{}, Modulo{}, shards, s, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			recs[s] = &roundRecorder{ShardBackend: ls, k: tc.k, calls: map[int32]int{}}
			backends[s] = recs[s]
		}
		c, err := New(backends, Config{FirstRoundK: tc.firstRoundK})
		if err != nil {
			t.Fatal(err)
		}
		one := map[int32]int{}
		queries := 0
		for q := int32(0); q < int32(g.N()); q += 15 {
			want, err := single.Query(core.Dynamic, q, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Query(core.Dynamic, q, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if !entriesEqual(got.Entries, want.Entries) {
				t.Fatalf("k=%d q=%d: cluster %v, single engine %v", tc.k, q, got.Entries, want.Entries)
			}
			one[q] = want.Stats.Refinements
			queries++
		}
		calls, round2, ref := 0, 0, 0
		for _, r := range recs {
			calls += r.n
			for q, n := range r.calls {
				round2 += n
				ref += one[q]
			}
		}
		if calls < queries {
			t.Fatalf("k=%d: %d round-2 calls over %d queries; every query should escalate", tc.k, calls, queries)
		}
		ratio := float64(round2) / float64(ref)
		t.Logf("k=%d first round %d: %d round-2 shard calls over %d queries, %d refinements vs %d for one engine on the same queries (%.2fx)",
			tc.k, tc.firstRoundK, calls, queries, round2, ref, ratio)
		if ratio > 1.25 {
			t.Errorf("k=%d: round-2 shard queries did %.2fx one engine's refinements (%d vs %d), want <= 1.25x", tc.k, ratio, round2, ref)
		}
	}
}
