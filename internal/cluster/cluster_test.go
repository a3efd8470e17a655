package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
	tg "rkranks/internal/testgraphs"
	"rkranks/internal/workload"
)

var allAlgorithms = []core.Algorithm{core.Naive, core.Static, core.Dynamic, core.Indexed}

// tieHeavy builds a random graph with weights from {1, 2}: pervasive
// distance (and rank) ties, the adversarial regime for the merge's
// boundary-tie certification.
func tieHeavy(seed int64, directed bool, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(directed)
	b.SetDedupe(true)
	b.EnsureNodes(n)
	m := n * (2 + rng.Intn(3))
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			b.MustAddEdge(u, v, float64(1+rng.Intn(2)))
		}
	}
	return b.Finalize()
}

func sharedIndex(t testing.TB, g *graph.Graph, maxK int) *ridx.ShardedIndex {
	t.Helper()
	ix, err := ridx.BuildSharded(g, ridx.BuildParams{
		Hubs: hub.Select(g, hub.DegreeFirst, g.N()/8+1, hub.Options{}),
		M:    g.N()/4 + 1,
		K:    maxK,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func entriesEqual(a, b []rank.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterEquivalence is the acceptance-criteria test: for every test
// graph and all four algorithms, coordinator results over 1/2/4/8 shards
// (both partitioners) are byte-identical — entries AND ranks — to a
// single-node Pool.Query.
func TestClusterEquivalence(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"toy", tg.Toy()},
		{"path", tg.Path(40)},
		{"tie-undirected", tieHeavy(5, false, 60)},
		{"tie-directed", tieHeavy(9, true, 60)},
		{"dblp", gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 7})},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			maxK := 16
			singleIx := sharedIndex(t, g, maxK)
			single, err := core.NewPoolWithIndex(g, core.Options{}, 2, singleIx)
			if err != nil {
				t.Fatal(err)
			}
			queries := workload.Random(g, 6, 17)
			for _, shards := range []int{1, 2, 4, 8} {
				for _, part := range []Partitioner{Modulo{}, DegreeBalanced{}} {
					clusterIx := sharedIndex(t, g, maxK)
					coord, err := NewLocal(g, core.Options{}, part, shards, 2, clusterIx, Config{})
					if err != nil {
						t.Fatal(err)
					}
					for _, algo := range allAlgorithms {
						for _, q := range queries {
							for _, k := range []int{1, 3, 10} {
								want, err := single.Query(algo, q, k)
								if err != nil {
									t.Fatal(err)
								}
								got, err := coord.Query(algo, q, k)
								if err != nil {
									t.Fatalf("%s shards=%d %v q=%d k=%d: %v", part.Name(), shards, algo, q, k, err)
								}
								if !entriesEqual(got.Entries, want.Entries) {
									t.Fatalf("%s shards=%d %v q=%d k=%d diverged:\n cluster %v\n single  %v",
										part.Name(), shards, algo, q, k, got.Entries, want.Entries)
								}
								if got.Partial {
									t.Fatalf("healthy cluster returned a partial result")
								}
							}
						}
					}
					if err := coord.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestClusterEquivalenceBichromatic shards a bichromatic workload: the
// global candidate class intersects with the shard masks while the
// counted class stays global, and results must still match single-node.
func TestClusterEquivalenceBichromatic(t *testing.T) {
	road, stores := gen.RoadNetwork(gen.RoadNetworkParams{Rows: 12, Cols: 12, KeepProb: 0.3, Stores: 24, Seed: 5})
	candidates, counted := gen.StoreClasses(road.N(), stores)
	opts := core.Options{Candidates: candidates, Counted: counted}
	single := core.NewPool(road, opts, 2)

	var queryPool []int32
	for v := 0; v < road.N(); v++ {
		if counted[v] {
			queryPool = append(queryPool, int32(v))
		}
	}
	queries := workload.RandomFrom(queryPool, 5, 23)
	for _, shards := range []int{2, 4, 8} {
		coord, err := NewLocal(road, opts, DegreeBalanced{}, shards, 2, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []core.Algorithm{core.Naive, core.Static, core.Dynamic} {
			for _, q := range queries {
				for _, k := range []int{1, 5} {
					want, err := single.Query(algo, q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := coord.Query(algo, q, k)
					if err != nil {
						t.Fatalf("shards=%d %v q=%d k=%d: %v", shards, algo, q, k, err)
					}
					if !entriesEqual(got.Entries, want.Entries) {
						t.Fatalf("shards=%d %v q=%d k=%d diverged:\n cluster %v\n single  %v",
							shards, algo, q, k, got.Entries, want.Entries)
					}
				}
			}
		}
	}
}

// TestClusterEquivalenceEvolvingIndex interleaves Indexed queries on a
// single-node pool and a 4-shard cluster whose shards share their own
// concurrent index. The two indexes evolve DIFFERENT contents (different
// query mixes feed them), which must not matter: canonical results are
// index-state independent.
func TestClusterEquivalenceEvolvingIndex(t *testing.T) {
	g := tieHeavy(21, false, 80)
	maxK := 16
	single, err := core.NewPoolWithIndex(g, core.Options{}, 2, sharedIndex(t, g, maxK))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewLocal(g, core.Options{}, Modulo{}, 4, 2, sharedIndex(t, g, maxK), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 60; round++ {
		q := int32(rng.Intn(g.N()))
		k := 1 + rng.Intn(maxK-1)
		// Skew the cluster's index evolution: extra traffic only it sees.
		if round%3 == 0 {
			if _, err := coord.Query(core.Indexed, int32(rng.Intn(g.N())), 1+rng.Intn(5)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := single.Query(core.Indexed, q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Query(core.Indexed, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !entriesEqual(got.Entries, want.Entries) {
			t.Fatalf("round %d q=%d k=%d diverged as indexes evolved:\n cluster %v\n single  %v",
				round, q, k, got.Entries, want.Entries)
		}
	}
}

// TestClusterConcurrentQueries exercises the scatter path under -race:
// many goroutines querying one coordinator (shared evolving index) must
// stay race-free and each byte-identical to single-node.
func TestClusterConcurrentQueries(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 250, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 13})
	coord, err := NewLocal(g, core.Options{}, DegreeBalanced{}, 4, 2, sharedIndex(t, g, 16), Config{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.NewPoolWithIndex(g, core.Options{}, 2, sharedIndex(t, g, 16))
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Random(g, 24, 31)
	results, err := coord.QueryMany(core.Indexed, queries, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := single.Query(core.Indexed, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !entriesEqual(results[i].Entries, want.Entries) {
			t.Fatalf("q=%d diverged under concurrency:\n cluster %v\n single  %v", q, results[i].Entries, want.Entries)
		}
	}
}

// TestRankFloorPruningReducesTransfer is the acceptance-criteria counter
// assertion: on the figure6-style workload, the floor-pruned gather must
// move measurably fewer entries than the naive full-k gather — and still
// answer byte-identically.
func TestRankFloorPruningReducesTransfer(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 400, AttachPerNode: 5, ExtraCollabFactor: 0.5, Seed: 29})
	const shards, k = 4, 20
	pruned, err := NewLocal(g, core.Options{}, DegreeBalanced{}, shards, 1, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewLocal(g, core.Options{}, DegreeBalanced{}, shards, 1, nil, Config{NaiveGather: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Random(g, 10, 41)
	for _, q := range queries {
		a, err := pruned.Query(core.Dynamic, q, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := naive.Query(core.Dynamic, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !entriesEqual(a.Entries, b.Entries) {
			t.Fatalf("q=%d: pruned and naive gathers disagree", q)
		}
	}
	ps := pruned.ClusterSnapshot().(*Snapshot)
	ns := naive.ClusterSnapshot().(*Snapshot)
	if ns.EntriesTransferred != int64(len(queries)*shards*k) {
		t.Fatalf("naive gather moved %d entries, want %d", ns.EntriesTransferred, len(queries)*shards*k)
	}
	if ps.EntriesTransferred >= ns.EntriesTransferred {
		t.Fatalf("rank-floor pruning did not reduce transfer: %d vs naive %d", ps.EntriesTransferred, ns.EntriesTransferred)
	}
	if ps.ShortCircuited == 0 {
		t.Error("no shard was ever short-circuited by its floor")
	}
	t.Logf("transfer: pruned %d vs naive %d entries (%.0f%% saved), %d short-circuits, %d escalations",
		ps.EntriesTransferred, ns.EntriesTransferred,
		100*(1-float64(ps.EntriesTransferred)/float64(ns.EntriesTransferred)),
		ps.ShortCircuited, ps.Escalations)
}

// TestMergeForcesEscalationOnBoundaryTie pins the tie-exactness of the
// certification: floors and cutoffs compare as (rank, node id) pairs, so
// a shard whose floor RANK merely equals the cutoff rank is only settled
// when its witness node id also clears the cutoff's.
func TestMergeForcesEscalationOnBoundaryTie(t *testing.T) {
	mk := func(k int, entries ...rank.Entry) *core.Result {
		return &core.Result{K: k, Entries: entries}
	}
	// Shard 0 returned 2 of k0=2 entries: floor witness (rank 5, node 8).
	// Shard 1 returned (rank 5, node 9) as the merged cutoff at k=2...
	results := []*core.Result{
		mk(2, rank.Entry{Node: 8, Rank: 5}, rank.Entry{Node: 12, Rank: 5}),
		mk(2, rank.Entry{Node: 3, Rank: 4}, rank.Entry{Node: 9, Rank: 5}),
	}
	merged := mergeTopK(results, 3)
	want := []rank.Entry{{Node: 3, Rank: 4}, {Node: 8, Rank: 5}, {Node: 9, Rank: 5}}
	if !entriesEqual(merged, want) {
		t.Fatalf("merge = %v, want %v", merged, want)
	}
	// Cutoff is (5, 9); shard 0's floor witness is (5, 12): 12 >= 9, so a
	// withheld candidate orders after (5, 12) > (5, 9) — settled.
	escalate, short := unsettledShards(results, merged, 3)
	if len(escalate) != 0 || short != 2 {
		t.Fatalf("escalate=%v short=%d, want none/2", escalate, short)
	}
	// Now k=4: merged has every entry, cutoff (5, 12) == shard 0's own
	// witness; a withheld (5, 13) could never beat it — but shard 1's
	// floor witness (5, 9) does NOT clear (5, 12): a withheld (5, 10)
	// would tie-break in. Shard 1 must escalate.
	merged = mergeTopK(results, 4)
	if len(merged) != 4 {
		t.Fatalf("merged %d entries, want 4", len(merged))
	}
	// Both shards answered at k0=2 < 4 and neither is exhausted; shard
	// 0's floor (5,12) clears the cutoff (5,12) while shard 1's (5,9)
	// does not — only shard 1 escalates.
	escalate, short = unsettledShards(results, merged, 4)
	if len(escalate) != 1 || escalate[0] != 1 || short != 1 {
		t.Fatalf("escalate=%v short=%d, want [1]/1", escalate, short)
	}
	f0 := results[0].Floor()
	f1 := results[1].Floor()
	cutoff := merged[3]
	if !f0.Clears(cutoff) {
		t.Errorf("floor (5,12) should clear cutoff %v", cutoff)
	}
	if f1.Clears(cutoff) {
		t.Errorf("floor (5,9) must NOT clear cutoff %v: a withheld (5,10) would tie-break in", cutoff)
	}
}

// flakyShard wraps a backend and fails on command.
type flakyShard struct {
	ShardBackend
	fail func() bool
}

func (f *flakyShard) Query(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	if f.fail() {
		return nil, errors.New("injected shard failure")
	}
	return f.ShardBackend.Query(ctx, a, q, k)
}

func localShards(t *testing.T, g *graph.Graph, shards int) []ShardBackend {
	t.Helper()
	backends := make([]ShardBackend, shards)
	for i := range backends {
		ls, err := NewLocalShard(g, core.Options{}, Modulo{}, shards, i, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = ls
	}
	return backends
}

// TestDegradedModeFlagsPartial: with one shard failing, the default mode
// answers from the healthy shards, flags Partial, and returns exactly the
// single-node result minus the dead shard's candidates.
func TestDegradedModeFlagsPartial(t *testing.T) {
	g := tg.Path(30)
	backends := localShards(t, g, 3)
	dead := 1
	backends[dead] = &flakyShard{ShardBackend: backends[dead], fail: func() bool { return true }}
	coord, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Query(core.Dynamic, 0, 5)
	if err != nil {
		t.Fatalf("degraded mode refused the query: %v", err)
	}
	if !res.Partial {
		t.Error("degraded result not flagged Partial")
	}
	for _, e := range res.Entries {
		if int(e.Node)%3 == dead {
			t.Errorf("entry %v belongs to the dead shard", e)
		}
	}

	// Strict mode refuses the same situation with a typed 503.
	strict, err := New(localShardsWithDead(t, g, 3, dead), Config{StrictConsistency: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = strict.Query(core.Dynamic, 0, 5)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("strict mode error = %v, want ErrShardUnavailable", err)
	}
}

func localShardsWithDead(t *testing.T, g *graph.Graph, shards, dead int) []ShardBackend {
	backends := localShards(t, g, shards)
	backends[dead] = &flakyShard{ShardBackend: backends[dead], fail: func() bool { return true }}
	return backends
}

// TestHealthTrackingTripsAndRecovers: consecutive failures trip a shard
// (queries stop waiting on it), and after the backoff the next query
// probes it again and restores full results.
func TestHealthTrackingTripsAndRecovers(t *testing.T) {
	g := tg.Path(20)
	backends := localShards(t, g, 2)
	down := true
	backends[1] = &flakyShard{ShardBackend: backends[1], fail: func() bool { return down }}
	coord, err := New(backends, Config{FailureThreshold: 2, RetryBackoff: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Two failures trip the shard.
	for i := 0; i < 2; i++ {
		res, err := coord.Query(core.Dynamic, 0, 4)
		if err != nil || !res.Partial {
			t.Fatalf("attempt %d: res=%+v err=%v", i, res, err)
		}
	}
	snap := coord.ClusterSnapshot().(*Snapshot)
	if snap.Shards[1].Available {
		t.Fatal("shard 1 should be tripped")
	}
	// Recover the backend; after the backoff a query probes and heals it.
	down = false
	time.Sleep(60 * time.Millisecond)
	res, err := coord.Query(core.Dynamic, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Error("recovered cluster still partial")
	}
	snap = coord.ClusterSnapshot().(*Snapshot)
	if !snap.Shards[1].Available {
		t.Error("shard 1 still marked down after recovery")
	}
}

// TestSnapshotShape sanity-checks the /statsz cluster section counters.
func TestSnapshotShape(t *testing.T) {
	g := tg.Path(25)
	coord, err := NewLocal(g, core.Options{}, Modulo{}, 2, 1, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for q := int32(0); q < 5; q++ {
		if _, err := coord.Query(core.Dynamic, q, 6); err != nil {
			t.Fatal(err)
		}
	}
	snap := coord.ClusterSnapshot().(*Snapshot)
	if snap.Queries != 5 {
		t.Errorf("queries = %d, want 5", snap.Queries)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("shards = %d", len(snap.Shards))
	}
	for _, s := range snap.Shards {
		if s.Queries == 0 {
			t.Errorf("shard %d never queried", s.ID)
		}
		if s.InFlight != 0 {
			t.Errorf("shard %d in-flight gauge stuck at %d", s.ID, s.InFlight)
		}
		if !s.Available {
			t.Errorf("shard %d unavailable", s.ID)
		}
	}
	if snap.EntriesTransferred == 0 || snap.Coordinator.Window == 0 || snap.MaxShard.Window == 0 {
		t.Errorf("snapshot missing data: %+v", snap)
	}
	if fmt.Sprint(snap.Shards[0].Backend) == "" {
		t.Error("shard description empty")
	}
}

// TestValidationFailsFast: malformed requests are rejected before any
// shard RPC, with the same typed errors a pool reports.
func TestValidationFailsFast(t *testing.T) {
	g := tg.Path(10)
	coord, err := NewLocal(g, core.Options{}, Modulo{}, 2, 1, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Query(core.Dynamic, 0, 0); !errors.Is(err, core.ErrInvalidK) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := coord.Query(core.Algorithm(9), 0, 3); !errors.Is(err, core.ErrUnknownAlgorithm) {
		t.Errorf("bad algorithm error = %v", err)
	}
	if _, err := coord.Query(core.Dynamic, 999, 3); !errors.Is(err, core.ErrInvalidQueryNode) {
		t.Errorf("bad query node error = %v", err)
	}
	if _, err := coord.Query(core.Indexed, 0, 3); !errors.Is(err, core.ErrIndexRequired) {
		t.Errorf("indexed on index-free cluster error = %v", err)
	}
}

// TestSharedIndexAcrossMaskedShards is the adversarial check of NewLocal's
// one-index-for-all-shards design. A shared Reverse Rank Dictionary holds
// slots from every shard's candidates, so a shard sees slots held by
// sources outside its class, which the Check Dictionary's eviction
// argument does not cover (see ridx.BuildParams.Candidates). With a tiny
// MaxK and distance ties everywhere, evictions are frequent; Indexed over
// 2-4 masked shards must still answer byte-identically to single-node
// Dynamic.
func TestSharedIndexAcrossMaskedShards(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := tieHeavy(40+seed, seed%2 == 0, 70)
		single := core.NewEngine(g, core.Options{})
		for _, maxK := range []int{1, 2, 3} {
			for _, shards := range []int{2, 3, 4} {
				coord, err := NewLocal(g, core.Options{}, Modulo{}, shards, 1, sharedIndex(t, g, maxK), Config{})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed*100 + int64(maxK*10+shards)))
				for round := 0; round < 120; round++ {
					q := int32(rng.Intn(g.N()))
					k := 1 + rng.Intn(maxK)
					want, err := single.Query(core.Dynamic, q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := coord.Query(core.Indexed, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !entriesEqual(got.Entries, want.Entries) {
						t.Fatalf("seed %d maxK=%d shards=%d round %d q=%d k=%d:\n cluster %v\n single  %v",
							seed, maxK, shards, round, q, k, got.Entries, want.Entries)
					}
				}
			}
		}
	}
}
