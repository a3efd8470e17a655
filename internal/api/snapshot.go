package api

import (
	"time"

	"rkranks/internal/core"
	"rkranks/internal/stats"
)

// Snapshot is the /statsz document. Field names are part of the wire
// protocol: add, never rename.
type Snapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	RequestsTotal int64            `json:"requests_total"`
	StatusClasses map[string]int64 `json:"status_classes"`
	SheddedTotal  int64            `json:"shedded_total"`

	QPS10s float64 `json:"qps_10s"`
	QPS60s float64 `json:"qps_60s"`

	// Latency is the query-route window (kept under its historic name so
	// existing dashboards read the same series); LatencyByRoute splits the
	// windows per route class ("query", "batch", "mutate", "other") so a
	// burst of slow mutations can no longer skew the query percentiles.
	Latency        LatencySnapshot            `json:"latency_ms"`
	LatencyByRoute map[string]LatencySnapshot `json:"latency_ms_by_route,omitempty"`

	PoolSize int  `json:"pool_size"`
	InFlight int  `json:"in_flight"`
	Queued   int  `json:"queued"`
	Draining bool `json:"draining"`

	// QueryStats sums the engine work counters (refinements, index hits,
	// seeded entries, ...) over every request that reached the pool —
	// the serving-level view of how much the shared index is paying off.
	QueryStats   core.Stats `json:"query_stats"`
	QueriesOK    int64      `json:"queries_ok"`
	IndexHitRate float64    `json:"index_hit_rate"`

	// BatchSharedTraversals mirrors QueryStats' counter of refinements the
	// batch executor resolved by settle-log replay instead of a fresh
	// search, and TraversalReuseRatio is its share of all refinements — the
	// serving-level view of how much shared-traversal batching is paying
	// off (0 on a workload of standalone queries).
	BatchSharedTraversals int64   `json:"batch_shared_traversals"`
	TraversalReuseRatio   float64 `json:"traversal_reuse_ratio"`

	// CSRBytes is the memory footprint of the packed CSR graph views the
	// backend's engines traverse (probed through decorator Unwrap chains;
	// the server's own graph answers when the backend doesn't). 0 until a
	// query has forced the views to build.
	CSRBytes int64 `json:"csr_bytes"`

	// HubLabelBytes is the memory footprint of the hub labeling the
	// backend's engines answer HubLabel queries from (probed like CSRBytes;
	// for a cluster, the sum over local shards). 0 without a labeling.
	HubLabelBytes int64 `json:"hub_label_bytes"`

	// LabelFallbackRate is the share of HubLabel candidate decisions the
	// labeling could NOT certify, forcing a CSR Dijkstra refinement:
	// LabelFallbacks / (LabelFallbacks + LabelPruned) over QueryStats.
	// Low is good — it measures how much of the rank work the precomputed
	// labels absorb. 0 when no HubLabel queries ran.
	LabelFallbackRate float64 `json:"label_fallback_rate"`

	// Generation is the backend's graph/answer-set generation: 0 forever
	// on immutable backends, bumped once per applied mutation batch on
	// live ones. The CI smoke test asserts the bump after /v1/mutate.
	Generation uint64 `json:"generation"`

	// Mutations is the live-mutation section — applied batch/op counters,
	// patch-vs-rebuild split, relabel progress — present only when the
	// backend serves /v1/mutate (see live.Snapshot for the schema). Typed
	// any to keep the wire package free of a live dependency; clients
	// decode it as a generic document.
	Mutations any `json:"mutations,omitempty"`

	// Cluster is the coordinator section — per-shard occupancy, health,
	// and the scatter-gather latency breakdown — present only when the
	// backend is a cluster (see cluster.Snapshot for the schema). Typed
	// any to keep the server free of a cluster dependency; clients decode
	// it as a generic document.
	Cluster any `json:"cluster,omitempty"`

	// Cache is the response-cache section — hit/coalesce/eviction
	// counters and byte occupancy — present only when the backend is
	// wrapped in a cache decorator (see cache.Snapshot for the schema).
	Cache any `json:"cache,omitempty"`

	// Replication is the index-replication section — delta cursor,
	// index generation, snapshot/delta traffic counters — present only
	// when the backend serves a replicated index (see
	// ReplicationSnapshot for the schema).
	Replication *ReplicationSnapshot `json:"replication,omitempty"`
}

// LatencySnapshot reports percentiles over the recent-latency window, in
// milliseconds.
type LatencySnapshot struct {
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	Mean   float64 `json:"mean"`
	Window int     `json:"window"`
}

// LatencyRing is a fixed-size window of recent latencies, the store
// behind every LatencySnapshot on /statsz. It is not safe for concurrent
// use; callers serialize access.
type LatencyRing struct {
	buf []float64 // seconds
	n   int       // valid prefix length
	idx int
}

// NewLatencyRing returns a ring that keeps the last window latencies.
func NewLatencyRing(window int) *LatencyRing {
	return &LatencyRing{buf: make([]float64, window)}
}

// Observe records one latency, evicting the oldest once the window is
// full.
func (r *LatencyRing) Observe(d time.Duration) {
	r.buf[r.idx] = d.Seconds()
	r.idx = (r.idx + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Snapshot reports the window's percentiles and mean in milliseconds.
func (r *LatencyRing) Snapshot() LatencySnapshot {
	if r.n == 0 {
		return LatencySnapshot{}
	}
	window := r.buf[:r.n]
	return LatencySnapshot{
		P50:    1000 * stats.Percentile(window, 50),
		P90:    1000 * stats.Percentile(window, 90),
		P99:    1000 * stats.Percentile(window, 99),
		Mean:   1000 * stats.Mean(window),
		Window: r.n,
	}
}
