package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"testing"

	"rkranks/internal/api"
	"rkranks/internal/gen"
	"rkranks/internal/live"
	"rkranks/internal/obs"
)

// reqCtx carries a benchmark request id when tr is set, as the load
// generator's requests do.
func reqCtx(tr *tracer, r route) context.Context {
	ctx := context.Background()
	if tr != nil {
		ctx, _, _ = tr.newRequest(ctx, r)
	}
	return ctx
}

// answers queries every pair through st and returns each answer's
// entries and generation, plus one batch of the same pairs.
func answers(t *testing.T, st *stack, tr *tracer, pairs []pair) []string {
	t.Helper()
	var out []string
	for _, p := range pairs {
		resp, err := st.client.Query(reqCtx(tr, routeQuery), "", p.q, p.k, 0)
		if err != nil {
			t.Fatalf("query %v: %v", p, err)
		}
		out = append(out, fmt.Sprintf("%s gen %d", entryBytes(resp.Entries), resp.Generation))
	}
	qs := make([]int32, len(pairs))
	for i, p := range pairs {
		qs[i] = p.q
	}
	resp, err := st.client.Batch(reqCtx(tr, routeBatch), "", qs, pairs[0].k, 0)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for _, r := range resp.Results {
		out = append(out, fmt.Sprintf("%s gen %d", entryBytes(r.Entries), r.Generation))
	}
	return out
}

func generation(t *testing.T, st *stack) uint64 {
	t.Helper()
	snap, err := st.client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return snap.Generation
}

// TestTracedStacksBehaveAlike boots every stack shape with and without
// the tracing wrappers and requires identical answers and generations,
// before and after a mutation where the stack takes one.
func TestTracedStacksBehaveAlike(t *testing.T) {
	ctx := context.Background()
	shapes := map[string]stackConfig{
		"indexed": {graph: "dblp", nodes: 800, index: true, cacheMB: 8},
		"road":    {graph: "road", cacheMB: 4},
		"cluster": {graph: "dblp", nodes: 800, cacheMB: 8, shards: 2, replicas: 2},
	}
	pairs := []pair{{3, 5}, {17, 5}, {250, 5}, {3, 5}}
	for name, cfg := range shapes {
		t.Run(name, func(t *testing.T) {
			plain, err := buildStack(ctx, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.close()
			tr := newTracer()
			traced, err := buildStack(ctx, cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.close()
			stacks := []*stack{plain, traced}
			tracers := []*tracer{nil, tr}
			same := func(when string) {
				a, b := answers(t, plain, nil, pairs), answers(t, traced, tr, pairs)
				if !slices.Equal(a, b) {
					t.Fatalf("%s: traced answers differ\nplain  %q\ntraced %q", when, a, b)
				}
				if ga, gb := generation(t, plain), generation(t, traced); ga != gb {
					t.Fatalf("%s: generation %d untraced, %d traced", when, ga, gb)
				}
			}
			same("before mutation")
			batch, _ := newMutStream(7, plain.graph).next()
			var status [2]int
			for i, st := range stacks {
				if _, err := st.client.Mutate(reqCtx(tracers[i], routeMutate), batch, 0); err != nil {
					var se *api.StatusError
					if !errors.As(err, &se) {
						t.Fatalf("mutate: %v", err)
					}
					status[i] = se.Status
				}
			}
			if status[0] != status[1] {
				t.Fatalf("mutate status %d untraced, %d traced", status[0], status[1])
			}
			if cfg.shards == 0 && status[0] != http.StatusNotImplemented {
				t.Fatalf("immutable stack answered mutate with %d, want 501", status[0])
			}
			same("after mutation")
			if len(tr.spans) == 0 {
				t.Fatal("traced stack recorded no spans")
			}
		})
	}
}

// TestTracedLiveCacheSeesMutations serves a live store behind the cache
// (rkserve -live -cache-mb) with and without the wrappers: the cache must
// still see the store's generation through the wrapped target, or it
// would serve pre-mutation answers.
func TestTracedLiveCacheSeesMutations(t *testing.T) {
	pairs := []pair{{3, 5}, {17, 5}, {250, 5}}
	var got [2][]string
	for i, tr := range []*tracer{nil, newTracer()} {
		g, err := gen.Named("dblp", 500, graphSeed)
		if err != nil {
			t.Fatal(err)
		}
		store, err := live.NewStore(g, live.Config{})
		if err != nil {
			t.Fatal(err)
		}
		front, err := frontServer(g, store, 8, obs.NewMetrics(obs.NewRegistry()), tr)
		if err != nil {
			t.Fatal(err)
		}
		st := &stack{client: api.NewClient(front.url()), servers: []*served{front}}
		before := answers(t, st, tr, pairs)
		ms := newMutStream(7, g)
		for j := 0; j < 3; j++ {
			batch, _ := ms.next()
			if _, err := st.client.Mutate(reqCtx(tr, routeMutate), batch, 0); err != nil {
				t.Fatal(err)
			}
			ms.ack(true)
		}
		after := answers(t, st, tr, pairs)
		if slices.Equal(before, after) {
			t.Fatalf("answers did not change across three mutation batches: %q", after)
		}
		if gen := generation(t, st); gen != 4 {
			t.Fatalf("generation %d after three batches, want 4", gen)
		}
		got[i] = append(before, after...)
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(got[0], got[1]) {
		t.Fatalf("traced answers differ\nplain  %q\ntraced %q", got[0], got[1])
	}
}

func TestOpStreamIsSeededAndRepeatsThirtyPercent(t *testing.T) {
	mix := workloads["dblp-social"].mix
	a, b := newOpStream(5, 1000, mix), newOpStream(5, 1000, mix)
	for i := 0; i < 2000; i++ {
		x, _, _ := a.take(-1)
		y, _, _ := b.take(-1)
		if x.kind != y.kind || x.q != y.q || x.k != y.k || !slices.Equal(x.qs, y.qs) {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
	}
	// Three in every ten, less one when the very first request draws a
	// repeat slot with nothing sent before it.
	if want := a.queries * 3 / 10; a.repeats != want && a.repeats != want-1 {
		t.Fatalf("%d repeats in %d queries, want 30%%", a.repeats, a.queries)
	}
}

func TestRoadStreamNeverRepeats(t *testing.T) {
	s := newOpStream(5, 10000, workloads["road-lookup"].mix)
	seen := map[pair]bool{}
	for i := 0; i < 4000; i++ {
		o, _, _ := s.take(-1)
		qs := o.qs
		if o.kind == opQuery {
			qs = []int32{o.q}
		}
		for _, q := range qs {
			p := pair{q, o.k}
			if seen[p] {
				t.Fatalf("request %d repeats %v", i, p)
			}
			seen[p] = true
		}
	}
	if s.batches != 200 {
		t.Fatalf("%d batches in 4000 requests, want 200", s.batches)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Fatal("p99 of 100 samples has one beyond it and must be refused")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}}
	if got := self(parent, kids); got != 60 {
		t.Fatalf("self = %d, want 60", got)
	}
}
