package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/rank"
	"rkranks/internal/server"
	tg "rkranks/internal/testgraphs"
	"rkranks/internal/workload"
)

// bootShardServer serves one vertex shard over real HTTP: a masked pool
// behind internal/server with the shard spec published on /healthz,
// exactly what `rkserve -shard i/P` runs.
func bootShardServer(t *testing.T, g *graph.Graph, part Partitioner, shards, shard int) *httptest.Server {
	t.Helper()
	mask, err := ShardMask(g, part, shards, shard, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool(g, core.Options{Candidates: mask}, 2)
	srv, err := server.New(server.Config{
		Pool:  pool,
		Graph: g,
		HealthExtra: map[string]any{
			"shard":             fmt.Sprintf("%d/%d", shard, shards),
			"shard_partitioner": part.Name(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteShardMaxRank sends a rank ceiling over the wire: a remote
// shard asked under core.WithMaxRank answers, on the single and batch
// paths, its unbounded answer filtered to rank <= R, and stamps the
// ceiling so the result's floor certifies only ranks above R.
func TestRemoteShardMaxRank(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 3})
	ts := bootShardServer(t, g, Modulo{}, 2, 1)
	rs, err := NewRemoteShard(context.Background(), ts.URL, RemoteExpect{Nodes: g.N(), Shard: "1/2", Partitioner: "modulo"})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	queries := workload.Random(g, 6, 5)
	for _, q := range queries {
		want, err := rs.Query(context.Background(), core.Dynamic, q, k)
		if err != nil {
			t.Fatal(err)
		}
		r := want.Entries[k/2].Rank
		ctx := core.WithMaxRank(context.Background(), r)
		got, err := rs.Query(ctx, core.Dynamic, q, k)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := rs.QueryBatch(ctx, core.Dynamic, []int32{q}, k)
		if err != nil {
			t.Fatal(err)
		}
		var exp []rank.Entry
		for _, e := range want.Entries {
			if e.Rank <= r {
				exp = append(exp, e)
			}
		}
		for name, res := range map[string]*core.Result{"query": got, "batch": batch[0]} {
			if !entriesEqual(res.Entries, exp) || res.MaxRank != r {
				t.Fatalf("%s q=%d R=%d: %v (MaxRank %d), want %v", name, q, r, res.Entries, res.MaxRank, exp)
			}
			if f := res.Floor(); len(res.Entries) < k && (f.Exhausted || f.Rank != r) {
				t.Fatalf("%s q=%d R=%d: short bounded answer certified %+v", name, q, r, f)
			}
		}
	}
}

// TestRemoteShardEquivalence runs the scatter-gather over real HTTP shard
// backends and checks byte-identity with single-node results.
func TestRemoteShardEquivalence(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 3})
	const shards = 2
	backends := make([]ShardBackend, shards)
	for i := 0; i < shards; i++ {
		ts := bootShardServer(t, g, Modulo{}, shards, i)
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
	single := core.NewPool(g, core.Options{}, 2)
	for _, q := range workload.Random(g, 5, 7) {
		for _, k := range []int{1, 4, 12} {
			want, err := single.Query(core.Dynamic, q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Query(core.Dynamic, q, k)
			if err != nil {
				t.Fatalf("q=%d k=%d: %v", q, k, err)
			}
			if !entriesEqual(got.Entries, want.Entries) {
				t.Fatalf("q=%d k=%d diverged over HTTP:\n cluster %v\n single  %v", q, k, got.Entries, want.Entries)
			}
		}
	}
	// Wire errors map back to the typed family: a bad k is the caller's
	// fault, not a shard failure.
	if _, err := coord.Query(core.Indexed, 0, 5); !errors.Is(err, core.ErrInvalidArgument) {
		t.Errorf("indexed on index-free remote shards: %v", err)
	}
}

// TestRemoteShardRejectsMisconfiguration: wrong graph, duplicated or
// swapped shard specs, full-graph backends, and partitioner mismatches
// are all refused at dial time — every one of them would otherwise merge
// silently wrong (overlapping or missing candidate classes).
func TestRemoteShardRejectsMisconfiguration(t *testing.T) {
	g := tg.Path(50)
	ts := bootShardServer(t, g, Modulo{}, 2, 0) // publishes shard 0/2, modulo
	cases := map[string]RemoteExpect{
		"wrong node count":     {Nodes: 51},
		"swapped shard index":  {Nodes: 50, Shard: "1/2"},
		"wrong shard count":    {Nodes: 50, Shard: "0/4"},
		"wrong partitioner":    {Nodes: 50, Shard: "0/2", Partitioner: "degree"},
		"full-graph expected?": {Nodes: 50, Shard: "0/1"},
	}
	for name, expect := range cases {
		if _, err := NewRemoteShard(context.Background(), ts.URL, expect); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewRemoteShard(context.Background(), ts.URL, RemoteExpect{
		Nodes: 50, Shard: "0/2", Partitioner: "modulo",
	}); err != nil {
		t.Fatalf("matching shard refused: %v", err)
	}
	// A backend WITHOUT a published shard spec (plain rkserve) must be
	// refused when the coordinator expects shard ownership.
	plain := httptest.NewServer(func() *server.Server {
		srv, err := server.New(server.Config{Pool: core.NewPool(g, core.Options{}, 1), Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}().Handler())
	t.Cleanup(plain.Close)
	if _, err := NewRemoteShard(context.Background(), plain.URL, RemoteExpect{Nodes: 50, Shard: "0/2"}); err == nil {
		t.Error("full-graph backend accepted as shard 0/2")
	}
	if _, err := NewRemoteShard(context.Background(), plain.URL, RemoteExpect{Nodes: 50}); err != nil {
		t.Errorf("single-backend degenerate cluster refused: %v", err)
	}
}

// fakeShard serves /healthz like a real shard but sheds every query with
// 429 and a fixed Retry-After.
func fakeOverloadedShard(t *testing.T, nodes, retryAfterSec int) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"status":"ok","graph_nodes":` +
			itoa(nodes) + `,"pool_size":2,"indexed":false}`))
	})
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", itoa(retryAfterSec))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"overloaded","code":"overloaded"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestCoordinatorPropagatesMaxRetryAfter: when several shards shed with
// 429, the coordinator's error carries the MAXIMUM shard hint — never its
// own estimate, never the minimum.
func TestCoordinatorPropagatesMaxRetryAfter(t *testing.T) {
	g := tg.Path(40)
	healthy := bootShardServer(t, g, Modulo{}, 3, 0)
	slow := fakeOverloadedShard(t, g.N(), 7)
	fast := fakeOverloadedShard(t, g.N(), 3)

	backends := make([]ShardBackend, 0, 3)
	for _, url := range []string{healthy.URL, slow.URL, fast.URL} {
		rs, err := NewRemoteShard(context.Background(), url, RemoteExpect{Nodes: g.N()})
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, rs)
	}
	coord, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Query(core.Dynamic, 1, 5)
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("error = %v, want OverloadedError", err)
	}
	if oe.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want the max shard hint 7s", oe.RetryAfter)
	}
	if len(oe.Shards) != 2 {
		t.Errorf("overloaded shards = %v, want both fakes", oe.Shards)
	}
	// Overload must not trip health tracking: the shards stay available.
	snap := coord.ClusterSnapshot().(*Snapshot)
	for _, s := range snap.Shards {
		if !s.Available {
			t.Errorf("shard %d tripped by 429s", s.ID)
		}
	}
}
