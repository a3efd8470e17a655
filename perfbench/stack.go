package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/cache"
	"rkranks/internal/cluster"
	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/live"
	"rkranks/internal/obs"
	"rkranks/internal/ridx"
	"rkranks/internal/server"
)

// stackConfig describes one serving stack in terms of the rkserve and
// rkcluster flags it mirrors.
type stackConfig struct {
	graph string // gen.Named kind (-gen)
	nodes int    // -gen-nodes
	// index builds one shared concurrent index (-build-index with the
	// default -index-h 0.1 -index-m 0.1 -index-k 100).
	index   bool
	cacheMB int // -cache-mb of the front server
	// shards > 0 boots shards x replicas `rkserve -live -shard i/P`
	// servers behind an `rkcluster -topology` coordinator.
	shards, replicas int
}

// graphSeed is the -gen-seed every stack boots with, the binaries'
// default. The graph is the dataset; the workload seed varies only the
// requests and mutations the stack receives.
const graphSeed = 1

// stack is a booted stack: HTTP servers on loopback and the client the
// benchmark drives them through.
type stack struct {
	client *api.Client
	graph  *graph.Graph // the front's graph as booted
	// genS and indexS time the front's graph generation and index build.
	genS, indexS float64
	servers      []*served
	coord        *cluster.Coordinator
}

// served is one HTTP server listening on loopback.
type served struct {
	srv  *server.Server
	hs   *http.Server
	ln   net.Listener
	done chan error
}

// accessLog formats access logs as rkserve does by default, then drops
// them, so their cost stays in the measurement without flooding output.
var accessLog = slog.New(slog.NewJSONHandler(io.Discard, nil))

func serve(srv *server.Server, h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("perfbench: listen: %w", err)
	}
	s := &served{srv: srv, hs: &http.Server{Handler: h}, ln: ln, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *served) url() string { return "http://" + s.ln.Addr().String() }

// close drains the server and waits for its serve loop to return.
func (s *served) close(ctx context.Context) error {
	if err := s.srv.Drain(ctx); err != nil {
		return err
	}
	if err := s.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// frontServer assembles what rkserve and rkcluster put in front of their
// executor: the optional response cache, then server.New. tr, when not
// nil, wraps each layer boundary.
func frontServer(g *graph.Graph, target cache.Target, cacheMB int, om *obs.Metrics, tr *tracer) (*served, error) {
	target = tr.wrap(layerCore, target)
	var be server.Backend = target
	if cacheMB > 0 {
		cached, err := cache.NewBackend(target, cache.Config{MaxBytes: int64(cacheMB) << 20, Metrics: om})
		if err != nil {
			return nil, err
		}
		be = tr.wrap(layerBackend, cached)
	}
	srv, err := server.New(server.Config{
		Backend:       be,
		Graph:         g,
		Metrics:       om,
		EnableMetrics: true,
		AccessLog:     accessLog,
	})
	if err != nil {
		return nil, err
	}
	return serve(srv, tr.handler(layerServer, srv.Handler()))
}

// buildStack generates the graph, builds the stack and waits until its
// front answers /healthz.
func buildStack(ctx context.Context, cfg stackConfig, tr *tracer) (*stack, error) {
	st := &stack{}
	start := time.Now()
	g, err := gen.Named(cfg.graph, cfg.nodes, graphSeed)
	if err != nil {
		return nil, err
	}
	st.genS = time.Since(start).Seconds()
	st.graph = g
	// One catalog per process, as in the binaries: the front's cache,
	// coordinator and server record into it.
	om := obs.NewMetrics(obs.NewRegistry())
	var front *served
	if cfg.shards > 0 {
		if err := st.bootShards(ctx, cfg, om, tr); err != nil {
			st.close()
			return nil, err
		}
		front, err = frontServer(g, st.coord, cfg.cacheMB, om, tr)
	} else {
		var pool *core.Pool
		if pool, err = st.buildPool(g, cfg.index); err == nil {
			front, err = frontServer(g, pool, cfg.cacheMB, om, tr)
		}
	}
	if err != nil {
		st.close()
		return nil, err
	}
	st.servers = append(st.servers, front)
	st.client = api.NewClient(front.url())
	if _, err := st.client.Health(ctx); err != nil {
		st.close()
		return nil, fmt.Errorf("perfbench: front /healthz: %w", err)
	}
	return st, nil
}

// buildPool is rkserve's immutable executor: a pool over one shared
// replicated index when index is set, a plain pool otherwise.
func (st *stack) buildPool(g *graph.Graph, index bool) (*core.Pool, error) {
	if !index {
		return core.NewPool(g, core.Options{}, 0), nil
	}
	start := time.Now()
	n := max(1, g.N()/10) // -index-h 0.1 and -index-m 0.1
	hubs := hub.Select(g, hub.DegreeFirst, n, hub.Options{Seed: graphSeed})
	ix, err := ridx.BuildSharded(g, ridx.BuildParams{Hubs: hubs, M: n, K: deepK}, 0)
	if err != nil {
		return nil, err
	}
	st.indexS = time.Since(start).Seconds()
	return core.NewPoolWithIndex(g, core.Options{}, 0, ridx.NewReplicated(ix, 0))
}

// bootShards starts cfg.shards x cfg.replicas live shard servers, each
// generating its own graph as a separate rkserve process would, and the
// coordinator over them.
func (st *stack) bootShards(ctx context.Context, cfg stackConfig, om *obs.Metrics, tr *tracer) error {
	part := cluster.Modulo{}
	ccfg := cluster.Config{Metrics: om}
	backends := make([]cluster.ShardBackend, 0, cfg.shards)
	nodes := 0
	for i := 0; i < cfg.shards; i++ {
		spec := fmt.Sprintf("%d/%d", i, cfg.shards)
		members := make([]cluster.ShardBackend, 0, cfg.replicas)
		for r := 0; r < cfg.replicas; r++ {
			g, err := gen.Named(cfg.graph, cfg.nodes, graphSeed)
			if err != nil {
				return err
			}
			nodes = g.N()
			shard := i
			maskFor := func(g *graph.Graph) ([]bool, error) { return cluster.ShardMask(g, part, cfg.shards, shard, nil) }
			som := obs.NewMetrics(obs.NewRegistry())
			store, err := live.NewStore(g, live.Config{CandidateFunc: maskFor, Metrics: som})
			if err != nil {
				return err
			}
			srv, err := server.New(server.Config{
				Backend:       tr.wrap(layerShardStore, store),
				Graph:         g,
				HealthExtra:   map[string]any{"shard": spec, "shard_partitioner": part.Name()},
				Metrics:       som,
				EnableMetrics: true,
				AccessLog:     accessLog,
			})
			if err != nil {
				return err
			}
			s, err := serve(srv, tr.handler(layerShardServer, srv.Handler()))
			if err != nil {
				return err
			}
			st.servers = append(st.servers, s)
			rs, err := cluster.NewRemoteShard(ctx, s.url(), cluster.RemoteExpect{Nodes: nodes, Shard: spec, Partitioner: part.Name()})
			if err != nil {
				return err
			}
			members = append(members, rs)
		}
		rg, err := cluster.NewReplicaGroup(members, ccfg)
		if err != nil {
			return err
		}
		backends = append(backends, rg)
	}
	coord, err := cluster.New(backends, ccfg)
	if err != nil {
		return err
	}
	st.coord = coord
	return nil
}

// close stops every server, front first, and waits for each.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	for i := len(st.servers) - 1; i >= 0; i-- {
		if err := st.servers[i].close(ctx); err != nil && first == nil {
			first = err
		}
	}
	if st.coord != nil {
		if err := st.coord.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.servers = nil
	return first
}
