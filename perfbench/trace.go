package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rkranks/internal/cache"
	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/obs"
	"rkranks/internal/server"
)

// layer names a boundary the traced run records spans at.
type layer uint8

const (
	layerClient      layer = iota // the benchmark's api.Client call
	layerServer                   // http.Handler of the front server
	layerBackend                  // server.Backend given to the front server (the cache)
	layerCore                     // cache.Target: the pool or the coordinator
	layerShardServer              // http.Handler of a shard server
	layerShardStore               // a shard's live store
	numLayers
)

var layerNames = [numLayers]string{"client", "server", "backend", "core", "shard.server", "shard.store"}

// route is the wire operation a span served.
type route uint8

const (
	routeQuery route = iota
	routeBatch
	routeMutate
)

var routeNames = [...]string{"query", "batch", "mutate"}

// span is one timed call across a layer boundary. Spans of one request
// share its id, which the X-Request-Id header carries across servers.
type span struct {
	id         uint64
	start, end int64 // nanoseconds since the tracer's base
	layer      layer
	route      route
	status     int // HTTP status at handler layers, 0 or 1 (error) elsewhere
	queries    int // queries the call answered
	// Work counters summed from the returned results (core.Stats).
	refinements, settled, indexHits int64
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every wrap returns its argument unchanged.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

const idPrefix = "pb-"

// newRequest returns a context whose trace carries a fresh request id,
// which api.Client forwards as X-Request-Id.
func (t *tracer) newRequest(ctx context.Context, r route) (context.Context, uint64, *obs.Trace) {
	id := t.ids.Add(1)
	tr := obs.NewTrace(idPrefix+strconv.FormatUint(id, 10), routeNames[r])
	return obs.ContextWithTrace(ctx, tr), id, tr
}

func parseID(s string) (uint64, bool) {
	rest, ok := strings.CutPrefix(s, idPrefix)
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(rest, 10, 64)
	return id, err == nil
}

// handler wraps an http.Handler, timing every request of the v1 query,
// batch and mutate routes that carries a benchmark request id.
func (t *tracer) handler(l layer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := parseID(r.Header.Get("X-Request-Id"))
		rt, known := routeOf(r.URL.Path)
		if !ok || !known {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := t.now()
		h.ServeHTTP(sw, r)
		t.add(span{id: id, start: start, end: t.now(), layer: l, route: rt, status: sw.status})
	})
}

func routeOf(path string) (route, bool) {
	switch path {
	case "/v1/query":
		return routeQuery, true
	case "/v1/batch":
		return routeBatch, true
	case "/v1/mutate":
		return routeMutate, true
	}
	return 0, false
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// wrap times calls into inner. The wrapper forwards every capability the
// server and the cache probe for: Generation directly (the cache asserts
// it on its target without walking Unwrap), Mutate when inner's chain
// has it, and the rest through Unwrap.
func (t *tracer) wrap(l layer, inner cache.Target) cache.Target {
	if t == nil {
		return inner
	}
	w := &traced{t: t, l: l, inner: inner}
	if m, ok := probe[server.Mutator](inner); ok {
		return &tracedMutator{traced: w, m: m}
	}
	return w
}

// probe finds a capability on v or down its Unwrap chain, as the server
// does.
func probe[T any](v any) (T, bool) {
	for v != nil {
		if c, ok := v.(T); ok {
			return c, true
		}
		u, ok := v.(interface{ Unwrap() any })
		if !ok {
			break
		}
		v = u.Unwrap()
	}
	var zero T
	return zero, false
}

type traced struct {
	t     *tracer
	l     layer
	inner cache.Target
}

// begin reads the request id before the call: a cache flight's context
// carries its leader's trace only while the leader waits.
func (w *traced) begin(ctx context.Context) (uint64, bool, int64) {
	id, ok := parseID(obs.RequestIDFromContext(ctx))
	return id, ok, w.t.now()
}

func (w *traced) record(id uint64, ok bool, r route, start int64, results []*core.Result, err error) {
	if !ok {
		return
	}
	s := span{id: id, start: start, end: w.t.now(), layer: w.l, route: r, queries: len(results)}
	if err != nil {
		s.status = 1
	}
	for _, res := range results {
		if res != nil {
			s.refinements += int64(res.Stats.Refinements)
			s.settled += int64(res.Stats.TreeSettled) + res.Stats.RefineSettled
			s.indexHits += int64(res.Stats.IndexHits)
		}
	}
	w.t.add(s)
}

func (w *traced) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	id, ok, start := w.begin(ctx)
	res, err := w.inner.QueryContext(ctx, a, q, k)
	w.record(id, ok, routeQuery, start, []*core.Result{res}, err)
	return res, err
}

func (w *traced) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	id, ok, start := w.begin(ctx)
	res, err := w.inner.QueryManyContext(ctx, a, queries, k)
	w.record(id, ok, routeBatch, start, res, err)
	return res, err
}

func (w *traced) Size() int     { return w.inner.Size() }
func (w *traced) Indexed() bool { return w.inner.Indexed() }
func (w *traced) Unwrap() any   { return w.inner }

// Generation reports the generation of inner's chain, or 0 without one
// (the cache's own default for a target without generations).
func (w *traced) Generation() uint64 {
	if g, ok := probe[interface{ Generation() uint64 }](w.inner); ok {
		return g.Generation()
	}
	return 0
}

type tracedMutator struct {
	*traced
	m server.Mutator
}

func (w *tracedMutator) Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error) {
	id, ok, start := w.begin(ctx)
	info, err := w.m.Mutate(ctx, ms)
	w.record(id, ok, routeMutate, start, nil, err)
	return info, err
}

// write saves the spans as tab-separated text, one span a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tlayer\troute\tstart_ns\tend_ns\tstatus\tqueries\trefinements\tsettled\tindex_hits")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", s.id, layerNames[s.layer], routeNames[s.route],
			s.start, s.end, s.status, s.queries, s.refinements, s.settled, s.indexHits)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
