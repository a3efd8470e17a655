// Command rkcluster serves reverse k-ranks queries from a sharded
// cluster: a scatter-gather coordinator (internal/cluster) behind the
// same HTTP contract as rkserve — POST /v1/query, POST /v1/batch,
// GET /healthz, GET /statsz — so clients and load balancers cannot tell
// one node from P.
//
// The cluster layout comes from ONE declarative topology file:
//
//	rkcluster -graph g.rkg -topology topo.json
//
// where topo.json names either in-process shards or remote replica sets
// (see the README's "Replication & failover" for the full format):
//
//	{"shards": [
//	  {"replicas": ["http://s0a:8080", "http://s0b:8080"]},
//	  {"replicas": ["http://s1a:8080", "http://s1b:8080"]}
//	]}
//
// Every URL in shard i's replica list must serve the SAME graph, booted
// as `rkserve -shard i/P -shard-partitioner <name>` with P the shard
// count; rkcluster dials each /healthz at startup and refuses
// mismatched node counts. Replicas of one shard are interchangeable:
// queries load-balance across the healthy ones and fail over without
// changing a byte of any answer; mutations fan to all of them in
// lockstep.
//
// In-process shards and the coordinator options (partitioner, first-round
// k, response cache, strict consistency) are topology fields too:
//
//	{"local": {"shards": 4, "pool_size": 2}, "partitioner": "degree",
//	 "first_round_k": 10, "cache_mb": 32}
//
// Queries fan out to all shards at a reduced first-round k; shards whose
// certified rank floor clears the merged cutoff are short-circuited and
// only the rest are re-fetched at full k, so results are byte-identical
// to a single node while transferring far fewer entries (see
// internal/cluster). /statsz gains a "cluster" section with per-shard
// occupancy, health, and the coordinator-vs-slowest-shard latency split.
//
// On SIGTERM/SIGINT the coordinator drains like rkserve: admission stops
// (503), in-flight scatters complete, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
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

func main() {
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if err := run(os.Args[1:], logger, nil); err != nil {
		logger.Error("fatal", slog.String("err", err.Error()))
		os.Exit(1)
	}
}

// run boots the cluster front and blocks until shutdown. ready, if
// non-nil, receives the bound address once the listener is up.
func run(args []string, logger *slog.Logger, ready chan<- string) error {
	fs := flag.NewFlagSet("rkcluster", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		graphPath = fs.String("graph", "", "graph file (.rkg binary or text edge list)")
		genType   = fs.String("gen", "", "serve a synthetic graph instead of -graph: dblp|epinions|road|gnm")
		genNodes  = fs.Int("gen-nodes", 5000, "node count for -gen")
		genSeed   = fs.Int64("gen-seed", 1, "seed for -gen")

		topoPath = fs.String("topology", "", "declarative cluster topology file (JSON; shard masks, per-shard replica lists, coordinator options); required")

		buildIndex = fs.Bool("build-index", false, "build one shared concurrent index for the in-process shards")
		hubFrac    = fs.Float64("index-h", 0.1, "hub fraction h for -build-index")
		rankFrac   = fs.Float64("index-m", 0.1, "ranked fraction m for -build-index")
		indexK     = fs.Int("index-k", 100, "max supported k for -build-index")

		hubLoad     = fs.String("hub-load", "", "prebuilt hub labeling file shared by the in-process shards (rkranks.SaveHubLabels format); enables the hublabel algorithm")
		hubCount    = fs.Int("hub-count", 0, "build one shared hub labeling with this many roots at startup (-1 = all nodes)")
		hubStrategy = fs.String("hub-strategy", "degree", "root-selection strategy for -hub-count: random|degree|closeness")
		hubWorkers  = fs.Int("hub-workers", 0, "build parallelism for -hub-count (0 = GOMAXPROCS; the labeling is identical for any value)")

		algo = fs.String("algo", "", "default algorithm (empty = indexed when every shard has an index, else dynamic)")

		inflight  = fs.Int("max-inflight", 0, "max requests served concurrently (0 = 2x bottleneck shard capacity)")
		queue     = fs.Int("max-queue", 0, "max requests waiting for a slot (0 = 4x max-inflight)")
		timeout   = fs.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTO     = fs.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
		drainTO   = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		accessLog = fs.Bool("access-log", true, "emit structured access logs")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (see CONTRIBUTING.md)")
		metricsOn = fs.Bool("metrics", true, "mount GET /metrics (Prometheus text exposition)")
		slowMS    = fs.Int("slow-query-ms", 500, "flight-recorder slow threshold in ms; 0 records EVERY request to /debug/requestz")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	topo, err := readTopology(*topoPath)
	if err != nil {
		return err
	}

	g, err := loadGraph(*graphPath, *genType, *genNodes, *genSeed)
	if err != nil {
		return err
	}
	logger.Info("graph loaded", slog.Int("nodes", g.N()), slog.Int64("edges", g.M()), slog.Bool("directed", g.Directed()))

	// One registry-backed catalog for the whole process: coordinator,
	// response cache, and server all record into it, so /metrics carries
	// the scatter-gather counters next to the HTTP surface.
	om := obs.NewMetrics(obs.NewRegistry())

	cfg := cluster.Config{StrictConsistency: topo.StrictConsistency, FirstRoundK: topo.FirstRoundK, Metrics: om}
	labels, err := resolveLabels(g, topo, *hubLoad, *hubCount, *hubStrategy, *hubWorkers, *genSeed, logger)
	if err != nil {
		return err
	}
	coord, err := buildCoordinator(g, topo, *buildIndex, *hubFrac, *rankFrac, *indexK, *genSeed, labels, cfg, logger)
	if err != nil {
		return err
	}
	defer coord.Close()
	logger.Info("coordinator ready",
		slog.Int("shards", coord.ShardCount()),
		slog.Int("capacity", coord.Size()),
		slog.Bool("indexed", coord.Indexed()),
		slog.Bool("hub_labeled", coord.HubLabeled()),
		slog.Bool("strict", topo.StrictConsistency))

	var backend server.Backend = coord
	if topo.CacheMB > 0 {
		cached, err := cache.NewBackend(coord, cache.Config{MaxBytes: int64(topo.CacheMB) << 20, Metrics: om})
		if err != nil {
			return err
		}
		backend = cached
		logger.Info("response cache enabled", slog.Int("budget_mb", topo.CacheMB))
	}

	scfg := server.Config{
		Backend:          backend,
		Graph:            g,
		DefaultAlgorithm: *algo,
		MaxInFlight:      *inflight,
		MaxQueue:         *queue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTO,
		EnablePprof:      *pprofOn,
		Metrics:          om,
		EnableMetrics:    *metricsOn,
	}
	if *slowMS == 0 {
		scfg.SlowQueryThreshold = -1 // record every request
	} else {
		scfg.SlowQueryThreshold = time.Duration(*slowMS) * time.Millisecond
	}
	if *accessLog {
		scfg.AccessLog = logger
	}
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	logger.Info("serving", slog.String("addr", ln.Addr().String()))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second SIGTERM kills hard

	logger.Info("draining", slog.Duration("timeout", *drainTO))
	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Error("drain incomplete", slog.String("err", err.Error()))
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	logger.Info("drained, exiting")
	return nil
}

// readTopology reads the -topology file, the one declaration of the
// cluster's layout and coordinator options.
func readTopology(path string) (*api.Topology, error) {
	if path == "" {
		return nil, fmt.Errorf("rkcluster: -topology is required (a JSON file with a \"local\" section or a \"shards\" list; see the README's \"Replication & failover\")")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := api.ReadTopology(f)
	if err != nil {
		return nil, fmt.Errorf("rkcluster: topology %s: %w", path, err)
	}
	return t, nil
}

// resolveLabels resolves the hub-labeling flags to ONE shared read-only
// labeling for the in-process shards (nil without one). Remote backends
// own their labelings — they are booted with their own -hub-* flags — so
// the flags are refused in remote mode rather than silently ignored.
func resolveLabels(g *graph.Graph, topo *api.Topology, path string, count int, strategy string, workers int, seed int64, logger *slog.Logger) (*hub.Labels, error) {
	if path == "" && count == 0 {
		return nil, nil
	}
	if len(topo.Shards) > 0 {
		return nil, fmt.Errorf("rkcluster: -hub-load/-hub-count apply to in-process shards; boot remote backends with their own rkserve -hub-* flags")
	}
	if path != "" && count != 0 {
		return nil, fmt.Errorf("rkcluster: -hub-load and -hub-count are mutually exclusive")
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		labels, err := hub.ReadLabels(f)
		if err != nil {
			return nil, err
		}
		if labels.N() != g.N() || labels.Directed() != g.Directed() {
			return nil, fmt.Errorf("rkcluster: labeling %s covers %d nodes (directed=%v), graph has %d (directed=%v)",
				path, labels.N(), labels.Directed(), g.N(), g.Directed())
		}
		logger.Info("hub labeling loaded", slog.String("path", path),
			slog.Int("hubs", labels.HubCount()), slog.Int64("bytes", labels.Bytes()))
		return labels, nil
	}
	h := count
	if h < 0 || h > g.N() {
		h = g.N()
	}
	strat, err := hub.ParseStrategy(strategy)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	roots := hub.Order(g, strat, h, hub.Options{Seed: seed, Workers: workers})
	labels, err := hub.BuildLabels(g, roots, workers)
	if err != nil {
		return nil, err
	}
	logger.Info("shared hub labeling built", slog.Int("hubs", h),
		slog.String("strategy", strat.String()), slog.Int64("bytes", labels.Bytes()),
		slog.Duration("elapsed", time.Since(start)))
	return labels, nil
}

// buildCoordinator assembles the shard backends the topology declares:
// remote rkserve replica sets when it lists shards, masked in-process
// pools (optionally replicated) otherwise.
func buildCoordinator(g *graph.Graph, topo *api.Topology,
	buildIndex bool, h, m float64, k int, seed int64,
	labels *hub.Labels, cfg cluster.Config, logger *slog.Logger) (*cluster.Coordinator, error) {
	opts := core.Options{Labels: labels}
	if P := len(topo.Shards); P > 0 {
		partName := topo.Partitioner
		if partName == "" {
			partName = "modulo"
		}
		backends := make([]cluster.ShardBackend, 0, P)
		for i, ts := range topo.Shards {
			expect := cluster.RemoteExpect{Nodes: g.N()}
			if P > 1 {
				// Merging assumes disjoint shard ownership: every replica
				// of entry i must have been booted as shard i of P with
				// the coordinator's partitioner. A single shard may serve
				// anything (degenerate one-shard cluster).
				expect.Shard = fmt.Sprintf("%d/%d", i, P)
				expect.Partitioner = partName
			}
			members := make([]cluster.ShardBackend, 0, len(ts.Replicas))
			for _, url := range ts.Replicas {
				// Bounded dial: a backend that TCP-accepts but never
				// answers must fail startup loudly, not hang it forever.
				dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				rs, err := cluster.NewRemoteShard(dctx, url, expect)
				cancel()
				if err != nil {
					return nil, err
				}
				logger.Info("replica attached", slog.Int("shard", i), slog.String("url", url),
					slog.Int("capacity", rs.Size()), slog.Bool("indexed", rs.Indexed()))
				members = append(members, rs)
			}
			if len(members) == 1 {
				backends = append(backends, members[0])
				continue
			}
			rg, err := cluster.NewReplicaGroup(members, cfg)
			if err != nil {
				return nil, err
			}
			logger.Info("replica set ready", slog.Int("shard", i), slog.Int("replicas", len(members)))
			backends = append(backends, rg)
		}
		return cluster.New(backends, cfg)
	}

	l := topo.Local
	if l == nil {
		l = &api.LocalTopology{}
	}
	shards, replicas := l.ShardCount(), l.ReplicaCount()
	part, err := cluster.ParsePartitioner(topo.Partitioner)
	if err != nil {
		return nil, err
	}
	if l.Live {
		indexMaxK := 0
		if buildIndex {
			// Live shards each start their OWN empty index at this MaxK
			// (rebuild swaps preclude sharing one; see ClusterOptions.Index).
			indexMaxK = k
		}
		return cluster.NewLocalLiveReplicated(g, live.Config{Options: opts, PoolSize: l.PoolSize}, indexMaxK, part, shards, replicas, cfg)
	}
	var ix ridx.Index
	if buildIndex {
		hn := max(1, int(float64(g.N())*h))
		mn := max(1, int(float64(g.N())*m))
		start := time.Now()
		hubs := hub.Select(g, hub.DegreeFirst, hn, hub.Options{Seed: seed})
		sh, err := ridx.BuildSharded(g, ridx.BuildParams{Hubs: hubs, M: mn, K: k}, 0)
		if err != nil {
			return nil, err
		}
		ix = sh
		logger.Info("shared index built", slog.Int("hubs", hn), slog.Int("m", mn),
			slog.Int("max_k", k), slog.Duration("elapsed", time.Since(start)))
	}
	return cluster.NewLocalReplicated(g, opts, part, shards, replicas, l.PoolSize, ix, cfg)
}

// loadGraph resolves -graph/-gen. The -gen parameters are shared with
// rkserve through gen.Named: cluster shards and their coordinator must
// build bit-identical graphs.
func loadGraph(path, genType string, nodes int, seed int64) (*graph.Graph, error) {
	switch {
	case path != "" && genType != "":
		return nil, fmt.Errorf("rkcluster: -graph and -gen are mutually exclusive")
	case path != "":
		return graph.ReadFile(path)
	case genType == "":
		return nil, fmt.Errorf("rkcluster: one of -graph or -gen is required")
	}
	return gen.Named(genType, nodes, seed)
}
