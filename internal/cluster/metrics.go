package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/obs"
)

// latWindow sizes the recent-latency rings (coordinator, max-shard, and
// per-shard): big enough for stable p99, small enough to track current
// behavior.
const latWindow = 1024

// metrics aggregates coordinator telemetry. The monotone counters are
// obs instruments — /statsz reads them back with Value(), so the cluster
// section and /metrics are one storage. The mutex guards the percentile
// rings (which /metrics does not carry; Prometheus derives distribution
// from the stage histograms instead); the per-shard in-flight gauges are
// atomics so the scatter hot path touches the lock once per query, not
// once per shard RPC.
type metrics struct {
	mu sync.Mutex

	queries        *obs.Counter
	partials       *obs.Counter
	failures       *obs.Counter // shard-level failures observed
	escalations    *obs.Counter // round-2 shard fetches
	shortCircuited *obs.Counter // shards settled by their round-1 floor
	transferred    *obs.Counter // result entries moved coordinator-ward
	skewRetries    *obs.Counter // re-scatters forced by generation skew

	batches      *obs.Counter // batch scatters served
	batchRPCs    *obs.Counter // shard RPCs spent on batch scatters (all rounds)
	batchQueries *obs.Counter // queries carried by batch scatters

	coord    *api.LatencyRing // whole scatter-gather-merge per query
	maxShard *api.LatencyRing // slowest shard RPC per query
	batch    *api.LatencyRing // whole batch scatter-merge per batch

	shards []*shardMetrics
}

type shardMetrics struct {
	inFlight atomic.Int64

	mu      sync.Mutex
	queries int64
	errors  int64
	lat     *api.LatencyRing
}

func newMetrics(shards int, om *obs.Metrics) *metrics {
	if om == nil {
		om = obs.NewMetrics(nil)
	}
	m := &metrics{
		queries:        om.ClusterQueries,
		partials:       om.ClusterPartials,
		failures:       om.ClusterShardFailures,
		escalations:    om.ClusterEscalations,
		shortCircuited: om.ClusterShortCircuited,
		transferred:    om.ClusterTransferred,
		skewRetries:    om.SkewRetries,
		batches:        om.ClusterBatches,
		batchRPCs:      om.ClusterBatchRPCs,
		batchQueries:   om.ClusterBatchQueries,
		coord:          api.NewLatencyRing(latWindow),
		maxShard:       api.NewLatencyRing(latWindow),
		batch:          api.NewLatencyRing(latWindow),
		shards:         make([]*shardMetrics, shards),
	}
	for i := range m.shards {
		m.shards[i] = &shardMetrics{lat: api.NewLatencyRing(latWindow)}
	}
	return m
}

// observeShard records one shard RPC.
func (m *metrics) observeShard(shard int, elapsed time.Duration, err error) {
	s := m.shards[shard]
	s.mu.Lock()
	s.queries++
	if err != nil {
		s.errors++
	} else {
		s.lat.Observe(elapsed)
	}
	s.mu.Unlock()
	if err != nil {
		m.failures.Inc()
	}
}

// observeQuery records one coordinator query's aggregate outcome.
func (m *metrics) observeQuery(elapsed, maxShard time.Duration, transferred, escalated, shortCircuited int, partial bool) {
	m.queries.Inc()
	if partial {
		m.partials.Inc()
	}
	m.transferred.Add(int64(transferred))
	m.escalations.Add(int64(escalated))
	m.shortCircuited.Add(int64(shortCircuited))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.coord.Observe(elapsed)
	if maxShard > 0 {
		m.maxShard.Observe(maxShard)
	}
}

// observeBatch records one batch scatter's aggregate outcome. The
// transfer, escalation, and short-circuit units are (shard, query) pairs,
// the same units the per-query path counts, so the savings columns stay
// comparable across both scatter modes.
func (m *metrics) observeBatch(elapsed, maxShard time.Duration, rpcs, queries, transferred, escalated, shortCircuited int) {
	m.batches.Inc()
	m.batchRPCs.Add(int64(rpcs))
	m.batchQueries.Add(int64(queries))
	m.transferred.Add(int64(transferred))
	m.escalations.Add(int64(escalated))
	m.shortCircuited.Add(int64(shortCircuited))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batch.Observe(elapsed)
	if maxShard > 0 {
		m.maxShard.Observe(maxShard)
	}
}

// Snapshot is the cluster section of /statsz. Field names are a frozen
// wire format: add, never rename.
type Snapshot struct {
	Queries        int64 `json:"queries"`
	PartialResults int64 `json:"partial_results"`
	ShardFailures  int64 `json:"shard_failures"`

	// EntriesTransferred counts result entries moved from shards to the
	// coordinator. Rank-floor pruning exists to keep it far below
	// shards x k x queries (what a naive full-k gather moves).
	EntriesTransferred int64 `json:"entries_transferred"`
	// Escalations counts round-2 full-k shard fetches (a shard whose
	// round-1 floor could not certify the merged cutoff).
	Escalations int64 `json:"escalations"`
	// ShortCircuited counts shards whose round-1 floor already cleared
	// the merged cutoff, so their remaining candidates were never
	// transferred.
	ShortCircuited int64 `json:"short_circuited"`
	// SkewRetries counts scatters re-run because shard answers spanned
	// two graph generations (a mutation landed mid-scatter).
	SkewRetries int64 `json:"skew_retries"`

	// Batches counts /v1/batch scatters; BatchRPCs the shard round trips
	// they spent (all rounds — with no escalations, exactly one per shard
	// per batch); BatchQueries the queries they carried. BatchRPCs over
	// BatchQueries is the RPCs-per-query figure batch scatter exists to
	// shrink (the per-query path spends at least one RPC per shard per
	// QUERY).
	Batches      int64 `json:"batches"`
	BatchRPCs    int64 `json:"batch_rpcs"`
	BatchQueries int64 `json:"batch_queries"`

	// Coordinator is the full scatter-gather-merge latency;
	// MaxShard is the slowest shard RPC within each query. The gap
	// between them is the merge + fan-out overhead the coordinator adds
	// over its slowest shard. Batch is the whole-batch latency of batch
	// scatters.
	Coordinator api.LatencySnapshot `json:"coordinator_ms"`
	MaxShard    api.LatencySnapshot `json:"max_shard_ms"`
	Batch       api.LatencySnapshot `json:"batch_ms"`

	Shards []ShardSnapshot `json:"shards"`
}

// ShardSnapshot is one shard's health and load view.
type ShardSnapshot struct {
	ID        int                 `json:"id"`
	Backend   string              `json:"backend"`
	Available bool                `json:"available"`
	Size      int                 `json:"size"`
	InFlight  int64               `json:"in_flight"`
	Queries   int64               `json:"queries"`
	Errors    int64               `json:"errors"`
	Latency   api.LatencySnapshot `json:"latency_ms"`
}

func (m *metrics) snapshot() Snapshot {
	m.mu.Lock()
	snap := Snapshot{
		Queries:            m.queries.Value(),
		PartialResults:     m.partials.Value(),
		ShardFailures:      m.failures.Value(),
		EntriesTransferred: m.transferred.Value(),
		Escalations:        m.escalations.Value(),
		ShortCircuited:     m.shortCircuited.Value(),
		SkewRetries:        m.skewRetries.Value(),
		Batches:            m.batches.Value(),
		BatchRPCs:          m.batchRPCs.Value(),
		BatchQueries:       m.batchQueries.Value(),
		Coordinator:        m.coord.Snapshot(),
		MaxShard:           m.maxShard.Snapshot(),
		Batch:              m.batch.Snapshot(),
		Shards:             make([]ShardSnapshot, len(m.shards)),
	}
	m.mu.Unlock()
	for i, s := range m.shards {
		s.mu.Lock()
		snap.Shards[i] = ShardSnapshot{
			ID:       i,
			InFlight: s.inFlight.Load(),
			Queries:  s.queries,
			Errors:   s.errors,
			Latency:  s.lat.Snapshot(),
		}
		s.mu.Unlock()
	}
	return snap
}
