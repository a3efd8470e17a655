// Package cluster serves reverse k-ranks queries across multiple shard
// backends: the cross-process scaling layer the ROADMAP points at, built
// behind the exact query semantics of internal/core and the wire contract
// of internal/server.
//
// # What vertex shards split
//
// Rank(p, q) is a global shortest-path property — it cannot be computed
// from a subgraph — so the graph itself is not partitioned. What IS
// partitioned is the candidate class: shard i answers queries for its own
// vertices only (an Options.Candidates mask). Every shard still holds the
// whole graph, like the partitioned hub labelings of ReHub partition
// label work rather than topology.
//
// The mask does not divide the query's CPU work. Lemma 1's parent bound
// does the pruning, so each shard bounds every out-of-class SDS-tree node
// when it is dequeued (core's classBound) and does about one node's work:
// on a dblp-like graph the summed refinements are about 3x a single
// node's at 2 shards, and more at 4. What the scatter buys is isolation
// and topology (failure domains, replica groups, per-shard deployment),
// not less CPU.
//
// # Scatter-gather with rank-floor pruning
//
// The coordinator fans a query out to all P shards at a reduced result
// size k0 ~ k/P + slack. Because results are canonical (the minimum k0
// entries by (rank, node id) — see core.Result), a full shard answer
// certifies a rank floor: every candidate the shard withheld orders
// strictly after its last returned entry. After merging round one, a
// shard whose floor clears the merged k-th entry can be short-circuited —
// none of its remaining candidates can enter the global top-k — and only
// the rest are re-fetched at full k. Boundary ties are handled exactly:
// floors and cutoffs compare as (rank, node id) pairs, so a withheld
// candidate that would tie-break into the result always forces the
// escalation. Two rounds always suffice: a full-k shard answer's floor
// clears any merged cutoff by construction.
//
// When round one merged at least k entries, its k-th rank R bounds the
// final kRank, so round two asks each escalated shard for its top-k
// among candidates ranked at most R only (a rank ceiling, core.WithMaxRank;
// max_rank on the wire). The shard engine prunes against R from its first
// pop instead of against its own kRank over a 1/P class, which is far
// weaker than one node's; the merge is unchanged, because every entry of
// the final answer ranks at most R.
//
// The merged result is therefore byte-identical to a single-node
// Pool.Query over the unsharded candidate class, for all four algorithms,
// while transferring far fewer than P*k entries per query.
//
// # Degradation
//
// Per-shard health tracking trips a backend after consecutive failures
// and retries it after a backoff. Under Config.StrictConsistency a query
// touching an unavailable shard fails with ErrShardUnavailable (HTTP
// 503); in the default degraded mode the coordinator answers from the
// healthy shards and marks the result Partial. Shard 429s are aggregated
// into an OverloadedError carrying the MAXIMUM shard Retry-After.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/obs"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
)

// firstRoundSlack pads the auto first-round k above the uniform share
// k/P: candidate quality is never perfectly uniform across shards, and a
// couple of spare entries per shard prevent most escalations.
const firstRoundSlack = 2

// Config tunes a Coordinator. The zero value is production-sane.
type Config struct {
	// StrictConsistency refuses queries (ErrShardUnavailable, HTTP 503)
	// whenever any shard is unavailable, instead of answering partially.
	StrictConsistency bool

	// FirstRoundK overrides the size of the first scatter round
	// (0 = auto: ceil(k/P) + 2, capped at k). Values >= k disable
	// rank-floor pruning — every shard then answers at full k in one
	// round.
	FirstRoundK int

	// NaiveGather forces the single-round full-k scatter, the baseline
	// the serving_cluster experiment compares rank-floor pruning against.
	NaiveGather bool

	// PerQueryScatter disables batch scatter: QueryManyContext scatters
	// every query of a batch independently (one RPC per shard PER QUERY,
	// the pre-batch baseline the serving_batch experiment compares
	// against) instead of one RPC per shard per batch.
	PerQueryScatter bool

	// FailureThreshold is how many consecutive failures trip a shard
	// (<= 0 defaults to 3).
	FailureThreshold int

	// RetryBackoff is how long a tripped shard is skipped before the
	// next query probes it again (<= 0 defaults to 5s).
	RetryBackoff time.Duration

	// Metrics backs the coordinator counters with the shared instrument
	// catalog, so /metrics and the /statsz cluster section read the same
	// storage. Nil uses standalone (unregistered) instruments.
	Metrics *obs.Metrics
}

func (c *Config) failureThreshold() int {
	if c.FailureThreshold <= 0 {
		return 3
	}
	return c.FailureThreshold
}

func (c *Config) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return 5 * time.Second
	}
	return c.RetryBackoff
}

// shardHealth is one backend's failure tracking: consecutive failures
// trip it for a backoff window; after the window, exactly ONE query at a
// time is admitted as the half-open probe (claimProbe) while everyone
// else keeps skipping the shard — a tripped backend under heavy traffic
// must not absorb the whole query population's connect latency the
// instant its backoff expires.
type shardHealth struct {
	mu        sync.Mutex
	fails     int
	downUntil time.Time
	probing   bool
}

// claimProbe reports whether a query may use the shard, claiming the
// half-open probe slot when the shard is tripped but due for one.
func (h *shardHealth) claimProbe(now time.Time, threshold int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fails < threshold {
		return true
	}
	if now.After(h.downUntil) && !h.probing {
		h.probing = true
		return true
	}
	return false
}

// healthy is the read-only view for /statsz: it never claims the probe.
func (h *shardHealth) healthy(threshold int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fails < threshold
}

// releaseProbe returns an unused probe claim (a query refused before
// scattering). Harmless on shards that were simply healthy.
func (h *shardHealth) releaseProbe() {
	h.mu.Lock()
	h.probing = false
	h.mu.Unlock()
}

func (h *shardHealth) record(ok bool, threshold int, backoff time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.probing = false
	if ok {
		h.fails = 0
		return
	}
	h.fails++
	if h.fails >= threshold {
		h.downUntil = time.Now().Add(backoff)
	}
}

// Coordinator scatters reverse k-ranks queries across shard backends and
// merges the answers with rank-floor pruning. It implements the
// server.Backend interface, so internal/server serves a cluster through
// the unchanged /v1/query contract. Safe for concurrent use.
type Coordinator struct {
	backends []ShardBackend
	cfg      Config
	health   []shardHealth
	metrics  *metrics
	closed   atomic.Bool

	// mutateMu serializes cluster-wide mutation batches so shard
	// generations advance in lockstep: batch n lands everywhere before
	// batch n+1 starts anywhere.
	mutateMu sync.Mutex
}

// New builds a coordinator over the given shard backends. The backends
// must partition one graph's candidate class between them (NewLocalShard
// and rkserve -shard both derive masks from the same deterministic
// partitioners, so agreeing on (partitioner, P) is enough).
func New(backends []ShardBackend, cfg Config) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: at least one shard backend is required")
	}
	return &Coordinator{
		backends: backends,
		cfg:      cfg,
		health:   make([]shardHealth, len(backends)),
		metrics:  newMetrics(len(backends), cfg.Metrics),
	}, nil
}

// NewLocal builds an in-process cluster: one masked engine pool per shard
// over g, all sharing ix when non-nil (exactly like a single NewPoolWithIndex
// pool, just partitioned). poolSize sizes each shard's pool (<= 0 derives
// a default that splits the machine across shards).
func NewLocal(g *graph.Graph, opts core.Options, part Partitioner, shards, poolSize int, ix ridx.Index, cfg Config) (*Coordinator, error) {
	if part == nil {
		part = Modulo{}
	}
	backends := make([]ShardBackend, shards)
	for i := 0; i < shards; i++ {
		ls, err := NewLocalShard(g, opts, part, shards, i, poolSize, ix)
		if err != nil {
			return nil, err
		}
		backends[i] = ls
	}
	return New(backends, cfg)
}

// NewLocalLive builds an in-process MUTABLE cluster: one live store per
// vertex shard over g, each owning its masked candidate class, pool, and
// (when indexMaxK > 0) its own empty concurrency-safe index that learns
// from the shard's traffic. base carries the shared live configuration;
// its Index and CandidateFunc fields are overwritten per shard (live
// shards cannot share one index — each store swaps in a fresh one on
// topology rebuilds). The coordinator's Mutate fans batches to every
// shard.
func NewLocalLive(g *graph.Graph, base live.Config, indexMaxK int, part Partitioner, shards int, cfg Config) (*Coordinator, error) {
	if part == nil {
		part = Modulo{}
	}
	backends := make([]ShardBackend, shards)
	for i := 0; i < shards; i++ {
		shardCfg := base
		if indexMaxK > 0 {
			shardCfg.Index = ridx.NewSharded(g.N(), indexMaxK)
		}
		ls, err := NewLiveShard(g, shardCfg, part, shards, i)
		if err != nil {
			return nil, err
		}
		backends[i] = ls
	}
	return New(backends, cfg)
}

// ShardCount returns the number of shard backends.
func (c *Coordinator) ShardCount() int { return len(c.backends) }

// Size implements server.Backend: the cluster's concurrent-query capacity
// is its bottleneck shard's, since every query occupies one engine slot
// on every shard.
func (c *Coordinator) Size() int {
	size := c.backends[0].Size()
	for _, b := range c.backends[1:] {
		if s := b.Size(); s < size {
			size = s
		}
	}
	if size < 1 {
		size = 1
	}
	return size
}

// Indexed implements server.Backend: Indexed queries are serveable only
// when every shard has an index.
func (c *Coordinator) Indexed() bool {
	for _, b := range c.backends {
		if !b.Indexed() {
			return false
		}
	}
	return true
}

// HubLabeled implements the serving-layer capability probe: HubLabel
// queries are serveable only when every shard holds a hub labeling.
func (c *Coordinator) HubLabeled() bool {
	for _, b := range c.backends {
		hl, ok := b.(interface{ HubLabeled() bool })
		if !ok || !hl.HubLabeled() {
			return false
		}
	}
	return true
}

// HubLabelBytes implements the /statsz footprint probe: the sum of the
// shard labelings' footprints (remote shards, which do not expose one,
// contribute 0 — their bytes live in their own /statsz).
func (c *Coordinator) HubLabelBytes() int64 {
	var total int64
	for _, b := range c.backends {
		if hb, ok := b.(interface{ HubLabelBytes() int64 }); ok {
			total += hb.HubLabelBytes()
		}
	}
	return total
}

// Generation implements the response-cache answer-set-generation probe:
// the maximum of the shard backends' generations (remote shards, which
// do not expose one, contribute 0). Mutation fan-outs keep live shards
// in lockstep, so in the healthy state this IS the cluster's common
// generation — the one Mutate reports and merged results are stamped
// with. It is also sound as a cache key: a complete (cacheable) merge
// only exists when every generation-bearing shard agrees on a value G,
// and the maximum equals exactly that G — skewed states can never
// produce a complete result under a colliding key. A ReplicaGroup
// backend reports its SERVING replica's generation here (never a
// catching-up replica's), which keeps the same argument sound under
// replication; see ReplicaGroup.Generation.
func (c *Coordinator) Generation() uint64 {
	var gen uint64
	for _, b := range c.backends {
		if gp, ok := b.(interface{ Generation() uint64 }); ok {
			if g := gp.Generation(); g > gen {
				gen = g
			}
		}
	}
	return gen
}

// ClusterSnapshot implements the server /statsz probe.
func (c *Coordinator) ClusterSnapshot() any {
	snap := c.metrics.snapshot()
	for i := range snap.Shards {
		snap.Shards[i].Backend = c.backends[i].Describe()
		snap.Shards[i].Size = c.backends[i].Size()
		snap.Shards[i].Available = c.health[i].healthy(c.cfg.failureThreshold())
	}
	return &snap
}

// Close releases every backend.
func (c *Coordinator) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, b := range c.backends {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Query is QueryContext with a background context.
func (c *Coordinator) Query(a core.Algorithm, q int32, k int) (*core.Result, error) {
	return c.QueryContext(context.Background(), a, q, k)
}

// shardOut is one shard RPC's outcome.
type shardOut struct {
	shard   int
	res     *core.Result
	err     error
	elapsed time.Duration
}

// gatherState accumulates a query's rounds.
type gatherState struct {
	results     []*core.Result // latest result per shard, nil = none
	stats       core.Stats     // work summed over every round
	maxShard    time.Duration
	transferred int
	partial     bool
	overloaded  []int
	retryAfter  time.Duration
	fatal       error
	firstFail   *ShardError
	answered    int
}

// skewRetries is how many times a query whose merge observed mixed graph
// generations is re-scattered before GenerationSkewError surfaces. A
// mutation batch's swap window is microseconds per shard, so one retry
// almost always lands entirely after it; persistent skew means the shards
// genuinely diverged (a partially failed mutation fan-out).
const skewRetries = 2

// QueryContext answers one reverse k-ranks query by scatter-gather:
// round one at the reduced first-round k, rank-floor certification, then
// a full-k round for only the shards the merge could not certify. The
// request context (deadline, cancellation) is passed through to every
// shard RPC.
//
// Merges are generation-consistent: when shard answers carry live-store
// generation stamps, a merge across two generations (a mutation batch
// landed mid-scatter) is refused and the whole scatter retried; see
// GenerationSkewError.
func (c *Coordinator) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	if err := core.ValidateRequest(a, k); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		res, err := c.queryOnce(ctx, a, q, k)
		var gs *GenerationSkewError
		if errors.As(err, &gs) && attempt < skewRetries && ctx.Err() == nil {
			c.metrics.skewRetries.Inc()
			continue
		}
		return res, err
	}
}

// queryOnce is one scatter-gather attempt of QueryContext.
func (c *Coordinator) queryOnce(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	start := time.Now()
	P := len(c.backends)

	targets, skipped := c.availableShards()
	if len(skipped) > 0 && c.cfg.StrictConsistency {
		// Release any half-open probe slots this query claimed: the
		// query is refused before it could run them, and a stuck probing
		// flag would lock the shard out of recovery.
		for _, i := range targets {
			c.health[i].releaseProbe()
		}
		return nil, &ShardError{Shard: skipped[0], Err: errors.New("tripped by health tracking")}
	}
	if len(targets) == 0 {
		return nil, &ShardError{Shard: skipped[0], Err: errors.New("no shard available")}
	}

	st := &gatherState{results: make([]*core.Result, P), partial: len(skipped) > 0}
	k0 := c.firstRoundK(k, P)
	// r1 is the round's parent span; summary attributes land on it after
	// the merge below (the *Span stays valid — it lives in the trace).
	r1 := c.gatherRound(ctx, a, q, k0, targets, st, obs.StageScatterRound1)
	if err := c.roundError(st); err != nil {
		return nil, err
	}

	var escalate []int
	shortCircuited := 0
	if k0 < k {
		merged := mergeTopK(st.results, k)
		escalate, shortCircuited = unsettledShards(st.results, merged, k)
		if len(escalate) > 0 {
			ceiling := roundTwoCeiling(ctx, merged, k)
			r2 := c.gatherRound(core.WithMaxRank(ctx, ceiling), a, q, k, escalate, st, obs.StageScatterRound2)
			r2.SetAttr("rank_ceiling", int64(ceiling))
			if err := c.roundError(st); err != nil {
				return nil, err
			}
		}
	}
	r1.SetAttr("short_circuited", int64(shortCircuited))
	r1.SetAttr("escalations", int64(len(escalate)))

	if st.answered == 0 {
		if st.firstFail != nil {
			return nil, st.firstFail
		}
		return nil, &ShardError{Shard: targets[0], Err: errors.New("no shard answered")}
	}

	gen, skewed := commonGeneration(st.results)
	if skewed {
		return nil, &GenerationSkewError{Query: q, Generations: distinctGenerations(st.results)}
	}
	r1.SetAttr("generation", int64(gen))
	res := &core.Result{
		Query:      q,
		K:          k,
		Entries:    mergeTopK(st.results, k),
		MaxRank:    core.MaxRank(ctx),
		Partial:    st.partial,
		Generation: gen,
		Stats:      st.stats,
	}
	c.metrics.observeQuery(time.Since(start), st.maxShard, st.transferred, len(escalate), shortCircuited, st.partial)
	return res, nil
}

// roundTwoCeiling returns the rank ceiling a second scatter round runs
// under. When round one merged at least k entries, the merged k-th rank
// bounds the final kRank: those k candidates are genuine and every other
// shard answer can only displace them with better ranks. Each escalated
// shard then needs only its candidates ranked at or below it
// (core.WithMaxRank), which prunes from the shard engine's first pop.
// Otherwise round two keeps ctx's own ceiling (0 for none).
func roundTwoCeiling(ctx context.Context, merged []rank.Entry, k int) int32 {
	if len(merged) < k {
		return core.MaxRank(ctx)
	}
	return merged[k-1].Rank
}

// commonGeneration extracts the one generation stamp a set of shard
// answers agrees on. Zero stamps mean "backend without live mutations"
// (live stores start at generation 1) and are ignored; two distinct
// nonzero stamps mean a mutation landed between shard answers and the
// merge must be refused.
func commonGeneration(results []*core.Result) (gen uint64, skewed bool) {
	for _, r := range results {
		if r == nil || r.Generation == 0 {
			continue
		}
		if gen == 0 {
			gen = r.Generation
			continue
		}
		if r.Generation != gen {
			return 0, true
		}
	}
	return gen, false
}

// distinctGenerations lists the distinct nonzero stamps, ascending (error
// reporting only).
func distinctGenerations(results []*core.Result) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, r := range results {
		if r != nil && r.Generation != 0 && !seen[r.Generation] {
			seen[r.Generation] = true
			out = append(out, r.Generation)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// availableShards splits the shard ids by health state, claiming the
// half-open probe slot of any tripped shard whose backoff has expired
// (at most one concurrent query probes a tripped shard).
func (c *Coordinator) availableShards() (targets, skipped []int) {
	now := time.Now()
	threshold := c.cfg.failureThreshold()
	for i := range c.backends {
		if c.health[i].claimProbe(now, threshold) {
			targets = append(targets, i)
		} else {
			skipped = append(skipped, i)
		}
	}
	return targets, skipped
}

// firstRoundK sizes the first scatter round.
func (c *Coordinator) firstRoundK(k, shards int) int {
	if c.cfg.NaiveGather || shards == 1 {
		return k
	}
	k0 := c.cfg.FirstRoundK
	if k0 <= 0 {
		k0 = (k+shards-1)/shards + firstRoundSlack
	}
	if k0 > k {
		k0 = k
	}
	if k0 < 1 {
		k0 = 1
	}
	return k0
}

// gatherRound scatters one round to the target shards in parallel and
// folds the outcomes into st. Failed shards keep whatever result an
// earlier round produced (degraded mode serves it, flagged Partial).
// The round is one parent span of the request trace with a per-shard
// child span each; the returned parent span (nil when untraced) lets
// the caller attach merge-time attributes after the round closed.
func (c *Coordinator) gatherRound(ctx context.Context, a core.Algorithm, q int32, k int, targets []int, st *gatherState, stage obs.Stage) *obs.Span {
	tr := obs.FromContext(ctx)
	psp := tr.Begin(stage)
	psp.SetAttr("shards", int64(len(targets)))
	psp.SetAttr("k", int64(k))
	outs := make([]shardOut, len(targets))
	var wg sync.WaitGroup
	for idx, shard := range targets {
		wg.Add(1)
		go func(idx, shard int) {
			defer wg.Done()
			sm := c.metrics.shards[shard]
			sm.inFlight.Add(1)
			csp := tr.BeginShard(stage, shard)
			t0 := time.Now()
			res, err := c.backends[shard].Query(ctx, a, q, k)
			elapsed := time.Since(t0)
			if err == nil {
				csp.SetAttr("entries", int64(len(res.Entries)))
			} else {
				csp.SetAttr("error", 1)
			}
			tr.End(csp)
			sm.inFlight.Add(-1)
			c.metrics.observeShard(shard, elapsed, err)
			failure := err != nil && !fatalQueryError(err)
			if _, isOverload := overloadHint(err); isOverload {
				failure = false // shedding load is the admission layer working, not ill health
			}
			c.health[shard].record(!failure, c.cfg.failureThreshold(), c.cfg.retryBackoff())
			outs[idx] = shardOut{shard: shard, res: res, err: err, elapsed: elapsed}
		}(idx, shard)
	}
	wg.Wait()

	for _, o := range outs {
		if o.err == nil {
			st.results[o.shard] = o.res
			st.stats.Add(o.res.Stats)
			st.transferred += len(o.res.Entries)
			st.answered++
			if o.res.Partial {
				st.partial = true
			}
			if o.elapsed > st.maxShard {
				st.maxShard = o.elapsed
			}
			continue
		}
		if fatalQueryError(o.err) {
			if st.fatal == nil {
				st.fatal = o.err
			}
			continue
		}
		if ra, ok := overloadHint(o.err); ok {
			st.overloaded = append(st.overloaded, o.shard)
			if ra > st.retryAfter {
				st.retryAfter = ra
			}
			continue
		}
		st.partial = true
		if st.firstFail == nil {
			st.firstFail = &ShardError{Shard: o.shard, Err: o.err}
		}
	}
	tr.End(psp)
	return psp
}

// roundError turns a round's fatal outcomes into the query's error:
// request faults and context expiry propagate verbatim, any shard 429
// makes the whole query a 429 with the max shard Retry-After, and in
// strict mode the first shard failure refuses the query.
func (c *Coordinator) roundError(st *gatherState) error {
	if st.fatal != nil {
		return st.fatal
	}
	if len(st.overloaded) > 0 {
		return &OverloadedError{Shards: st.overloaded, RetryAfter: st.retryAfter}
	}
	if c.cfg.StrictConsistency && st.firstFail != nil {
		return st.firstFail
	}
	return nil
}

// QueryMany is QueryManyContext with a background context.
func (c *Coordinator) QueryMany(a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	return c.QueryManyContext(context.Background(), a, queries, k)
}

// QueryManyContext implements the batch entry point of server.Backend
// with batch scatter: ONE RPC per shard carries every query of the batch
// at the reduced first-round k, each query is merged and certified with
// the same rank-floor rules as QueryContext, and only the (shard, query)
// pairs the merge could not certify ride a grouped second round — again
// at most one RPC per shard. Results are byte-identical to scattering
// each query alone (see batchScatter), in input order.
//
// Config.PerQueryScatter restores the old behavior — one scatter-gather
// per query, pipelined up to the cluster's bottleneck capacity (Size) by
// the shared core.FanOut loop — as the comparison baseline.
func (c *Coordinator) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	if err := core.ValidateRequest(a, k); err != nil {
		return nil, err
	}
	if c.cfg.PerQueryScatter {
		return core.FanOut(ctx, c.Size(), queries, func(ctx context.Context, q int32) (*core.Result, error) {
			return c.QueryContext(ctx, a, q, k)
		})
	}
	return c.batchScatter(ctx, a, queries, k)
}

// shardMutator is the per-shard mutation capability (LiveShard in
// process, RemoteShard over /v1/mutate).
type shardMutator interface {
	Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error)
}

// Mutate implements the server Mutator probe for a cluster: one mutation
// batch is fanned to EVERY shard backend — each holds the whole graph, so
// each applies the whole batch — and the coordinator serializes batches
// so shard generations advance in lockstep. A shard that fails its first
// attempt is retried once; surviving failures return a MutationError and
// leave the cluster generation-skewed, which the query path detects and
// refuses to merge across (see GenerationSkewError) — correctness is
// preserved, availability degrades until the shards converge.
func (c *Coordinator) Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error) {
	muts := make([]shardMutator, len(c.backends))
	for i, b := range c.backends {
		m, ok := b.(shardMutator)
		if !ok {
			return live.MutateInfo{}, &ImmutableShardError{Shard: i}
		}
		muts[i] = m
	}
	c.mutateMu.Lock()
	defer c.mutateMu.Unlock()

	infos := make([]live.MutateInfo, len(muts))
	errs := make([]error, len(muts))
	var wg sync.WaitGroup
	for i, m := range muts {
		wg.Add(1)
		go func(i int, m shardMutator) {
			defer wg.Done()
			preGen, preKnown := currentGeneration(ctx, c.backends[i])
			infos[i], errs[i] = m.Mutate(ctx, ms)
			if errs[i] == nil || fatalQueryError(errs[i]) || immutableRemote(errs[i]) || isImmutableShard(errs[i]) {
				return
			}
			// One retry absorbs transient shard hiccups; validation errors
			// and 501s would fail identically again. The retry is guarded:
			// a non-fatal error does not prove the batch was not applied
			// (a remote transport can fail after the server committed it),
			// and re-sending an applied batch would double-apply it on
			// this shard alone — so a generation that provably advanced
			// counts as an apply instead.
			if gen, ok := currentGeneration(ctx, c.backends[i]); preKnown && ok && gen > preGen {
				infos[i], errs[i] = live.MutateInfo{Applied: len(ms), Generation: gen}, nil
				return
			}
			infos[i], errs[i] = m.Mutate(ctx, ms)
			if errs[i] == nil || fatalQueryError(errs[i]) || immutableRemote(errs[i]) || isImmutableShard(errs[i]) {
				return
			}
			if gen, ok := currentGeneration(ctx, c.backends[i]); preKnown && ok && gen > preGen {
				infos[i], errs[i] = live.MutateInfo{Applied: len(ms), Generation: gen}, nil
			}
		}(i, m)
	}
	wg.Wait()

	failed := map[int]error{}
	for i, err := range errs {
		switch {
		case err == nil:
		case immutableRemote(err) || isImmutableShard(err):
			// A remote 501, or a replica group whose members are
			// immutable: surface the typed error (mapped to HTTP 501).
			return live.MutateInfo{}, &ImmutableShardError{Shard: i}
		case errors.Is(err, core.ErrInvalidArgument):
			// The batch itself is bad; every shard refused it identically
			// and none applied it, so the cluster is still converged.
			return live.MutateInfo{}, err
		default:
			failed[i] = err
		}
	}
	if len(failed) > 0 {
		return live.MutateInfo{}, &MutationError{Failed: failed}
	}
	info := infos[0]
	for _, in := range infos[1:] {
		info.Rebuilt = info.Rebuilt || in.Rebuilt
	}
	return info, nil
}

// MutationSnapshot aggregates the shards' mutation counters for /statsz
// (nil when no shard is live).
func (c *Coordinator) MutationSnapshot() any {
	out := make(map[string]any)
	for i, b := range c.backends {
		if msn, ok := b.(interface{ MutationSnapshot() any }); ok {
			out[fmt.Sprintf("shard_%d", i)] = msn.MutationSnapshot()
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

var (
	_ ShardBackend = (*LocalShard)(nil)
	_ ShardBackend = (*RemoteShard)(nil)
	_ ShardBackend = (*LiveShard)(nil)
	_ shardMutator = (*LiveShard)(nil)
	_ shardMutator = (*RemoteShard)(nil)
)
