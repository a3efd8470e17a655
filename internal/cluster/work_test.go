package cluster

import (
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
