package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rkranks/internal/gen"
	"rkranks/internal/ridx"
)

func ctxTestGraph() *gen.DBLPLikeParams {
	return &gen.DBLPLikeParams{Nodes: 1500, AttachPerNode: 5, Seed: 11}
}

// TestQueryContextAlreadyDone: a context that is done before the call never
// starts the query.
func TestQueryContextAlreadyDone(t *testing.T) {
	g := gen.DBLPLike(*ctxTestGraph())
	e := NewEngine(g, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, Dynamic, 0, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestQueryContextDeadline: an expiring deadline aborts the heavy naive
// engine mid-query and reports DeadlineExceeded.
func TestQueryContextDeadline(t *testing.T) {
	// Large k keeps the heap from filling, so naive refinements cannot
	// abort early — the query takes far longer than the deadline and the
	// cancellation path must fire.
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 4000, AttachPerNode: 5, Seed: 11})
	e := NewEngine(g, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.QueryContext(ctx, Naive, 0, 200)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, not bounded", elapsed)
	}
}

// TestEngineReusableAfterCancel: abandoning a query mid-flight leaves the
// engine consistent — the next (uncanceled) query returns byte-identical
// results to a fresh engine. The subtest runs on a serial engine (zero
// refine workers), the only kind there is.
func TestEngineReusableAfterCancel(t *testing.T) {
	t.Run("workers=0", func(t *testing.T) {
		g := gen.DBLPLike(*ctxTestGraph())
		e := NewEngine(g, Options{})
		for q := int32(0); q < 8; q++ {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
			_, err := e.QueryContext(ctx, Dynamic, q, 10)
			cancel()
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("q=%d: unexpected error %v", q, err)
			}
			// err == nil: the query beat the deadline — equally fine.
		}
		fresh := NewEngine(g, Options{})
		for q := int32(0); q < 8; q++ {
			got, err := e.Query(Dynamic, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(Dynamic, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Entries) != fmt.Sprint(want.Entries) {
				t.Fatalf("q=%d: entries diverged after cancellation: %v != %v", q, got.Entries, want.Entries)
			}
		}
	})
}

// TestIndexNotPoisonedByCancel: canceled Indexed queries must not feed
// truncated refinement state into the shared index — subsequent queries
// through the same index still agree with the index-free oracle.
func TestIndexNotPoisonedByCancel(t *testing.T) {
	g := gen.DBLPLike(*ctxTestGraph())
	sh, err := ridx.BuildSharded(g, ridx.BuildParams{Hubs: []int32{0, 1, 2, 3, 4}, M: 100, K: 20}, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, Options{})
	e.SetIndex(sh)
	for q := int32(0); q < 12; q++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		_, err := e.QueryContext(ctx, Indexed, q, 10)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("q=%d: unexpected error %v", q, err)
		}
	}
	oracle := NewEngine(g, Options{})
	for q := int32(0); q < 12; q++ {
		got, err := e.Query(Indexed, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(Dynamic, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Entries) != fmt.Sprint(want.Entries) {
			t.Fatalf("q=%d: indexed-after-cancel diverged from oracle: %v != %v", q, got.Entries, want.Entries)
		}
	}
}

// TestPoolQueryContextWaiting: a caller canceled while waiting for a free
// engine gets the context error instead of blocking forever.
func TestPoolQueryContextWaiting(t *testing.T) {
	g := gen.DBLPLike(*ctxTestGraph())
	pool := NewPool(g, Options{}, 1)

	release := make(chan struct{})
	acquired := make(chan struct{})
	go func() {
		// Occupy the single engine directly through the pool with a slow
		// naive query; signal once it must have started.
		close(acquired)
		_, _ = pool.Query(Naive, 0, 5)
		close(release)
	}()
	<-acquired
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := pool.QueryContext(ctx, Dynamic, 1, 5)
	// Either the slow query still held the engine (waiting error) or it
	// finished and our deadline hit mid-query; both must surface ctx's
	// error, never hang.
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded (or success)", err)
	}
	<-release
}

// TestQueryManyContextCancel: cancellation mid-batch returns the context
// error rather than running the batch to completion.
func TestQueryManyContextCancel(t *testing.T) {
	g := gen.DBLPLike(*ctxTestGraph())
	pool := NewPool(g, Options{}, 2)
	queries := make([]int32, 64)
	for i := range queries {
		queries[i] = int32(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := pool.QueryManyContext(ctx, Naive, queries, 5)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}
