package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/obs"
	"rkranks/internal/server"
)

// bootRecordingShard is bootShardServer with the flight recorder set to
// capture every request, and the Server returned so the test can read
// the recorder back.
func bootRecordingShard(t *testing.T, g *graph.Graph, shards, shard int) (*server.Server, *httptest.Server) {
	t.Helper()
	mask, err := ShardMask(g, Modulo{}, shards, shard, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool(g, core.Options{Candidates: mask}, 2)
	srv, err := server.New(server.Config{
		Pool:               pool,
		Graph:              g,
		SlowQueryThreshold: -1,
		HealthExtra: map[string]any{
			"shard":             fmt.Sprintf("%d/%d", shard, shards),
			"shard_partitioner": "modulo",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestTracePropagatesAcrossShards: a coordinator-side trace's request ID
// rides the X-Request-Id header into every remote shard server, so the
// shard-side flight-recorder records stitch to the coordinator's trace;
// and the coordinator's own trace carries the scatter round with one
// child span per shard.
func TestTracePropagatesAcrossShards(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 3})
	const shards = 2
	servers := make([]*server.Server, shards)
	backends := make([]ShardBackend, shards)
	for i := 0; i < shards; i++ {
		srv, ts := bootRecordingShard(t, g, shards, i)
		servers[i] = srv
		rs, err := NewRemoteShard(context.Background(), ts.URL, RemoteExpect{
			Nodes: g.N(), Shard: fmt.Sprintf("%d/%d", i, shards), Partitioner: "modulo",
		})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rs
	}
	coord, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}

	const rid = "stitched-trace-0001"
	tr := obs.NewTrace(rid, "query")
	defer tr.Release()
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, err := coord.QueryContext(ctx, core.Dynamic, 7, 10); err != nil {
		t.Fatal(err)
	}

	// Both shard servers must have recorded the coordinator's ID: one
	// request, one stitched trace across three processes.
	for i, srv := range servers {
		snap := srv.Recorder().Snapshot()
		found := false
		for _, rec := range snap.Slow {
			if rec.RequestID == rid {
				found = true
				if rec.Route != "query" {
					t.Errorf("shard %d recorded route %q, want query", i, rec.Route)
				}
			}
		}
		if !found {
			t.Errorf("shard %d never saw request ID %q; records: %+v", i, rid, snap.Slow)
		}
	}

	// The coordinator trace holds the scatter round as a parent span plus
	// one child span per shard.
	var parents, children int
	for _, sp := range tr.Spans() {
		if sp.Stage != obs.StageScatterRound1 {
			continue
		}
		if sp.Shard < 0 {
			parents++
		} else {
			children++
		}
	}
	if parents != 1 || children != shards {
		t.Errorf("scatter.round1 spans: %d parents, %d children; want 1 and %d", parents, children, shards)
	}
}

// TestRoundTwoSpanCarriesRankCeiling: an escalated query's scatter.round2
// span records the rank ceiling round two ran under, the merged round-1
// k-th rank, which bounds the final answer's kRank.
func TestRoundTwoSpanCarriesRankCeiling(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 3})
	coord, err := NewLocal(g, core.Options{}, Modulo{}, 2, 1, nil, Config{FirstRoundK: 5})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	seen := 0
	for q := int32(0); q < 40; q++ {
		tr := obs.NewTrace("ceiling", "query")
		res, err := coord.QueryContext(obs.ContextWithTrace(context.Background(), tr), core.Dynamic, q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.Spans() {
			if sp.Stage != obs.StageScatterRound2 || sp.Shard >= 0 {
				continue
			}
			seen++
			r, ok := sp.Attr("rank_ceiling")
			if !ok || r <= 0 || int32(r) < res.KRank() {
				t.Errorf("q=%d: scatter.round2 rank_ceiling %d (set %v), final kRank %d", q, r, ok, res.KRank())
			}
		}
		tr.Release()
	}
	if seen == 0 {
		t.Fatal("no query escalated; the test exercises nothing")
	}

}

// ceilingRecorder records the rank ceiling and queries of every batch
// RPC a shard serves at full k.
type ceilingRecorder struct {
	ShardBackend
	k     int
	mu    sync.Mutex
	calls []ceilingCall
}

type ceilingCall struct {
	ceiling int32
	queries []int32
}

func (r *ceilingRecorder) QueryBatch(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	if k == r.k {
		r.mu.Lock()
		r.calls = append(r.calls, ceilingCall{core.MaxRank(ctx), append([]int32(nil), queries...)})
		r.mu.Unlock()
	}
	return r.ShardBackend.QueryBatch(ctx, a, queries, k)
}

// TestBatchRoundTwoCeiling: the batch scatter sends each escalated shard
// one round-2 RPC whose ceiling is the loosest of its queries' merged
// round-1 k-th ranks, so it is at least every one of those queries' final
// kRank, and the answers stay byte-identical to scattering one by one.
func TestBatchRoundTwoCeiling(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 3})
	const shards, k = 2, 10
	recs := make([]*ceilingRecorder, shards)
	backends := make([]ShardBackend, shards)
	for s := range backends {
		ls, err := NewLocalShard(g, core.Options{}, Modulo{}, shards, s, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs[s] = &ceilingRecorder{ShardBackend: ls, k: k}
		backends[s] = recs[s]
	}
	coord, err := New(backends, Config{FirstRoundK: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]int32, 40)
	for i := range queries {
		queries[i] = int32(i)
	}
	results, err := coord.QueryMany(core.Dynamic, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	kRank := map[int32]int32{}
	for i, res := range results {
		want, err := coord.Query(core.Dynamic, queries[i], k)
		if err != nil {
			t.Fatal(err)
		}
		if !entriesEqual(res.Entries, want.Entries) {
			t.Fatalf("batch q=%d: %v, single scatter %v", queries[i], res.Entries, want.Entries)
		}
		kRank[queries[i]] = res.KRank()
	}
	rpcs := 0
	for s, r := range recs {
		for _, call := range r.calls {
			rpcs++
			for _, q := range call.queries {
				if call.ceiling <= 0 || call.ceiling < kRank[q] {
					t.Errorf("shard %d: round-2 RPC ceiling %d, query %d has final kRank %d", s, call.ceiling, q, kRank[q])
				}
			}
		}
	}
	if rpcs == 0 {
		t.Fatal("the batch never escalated")
	}
}
