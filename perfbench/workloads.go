package main

import "math/rand"

// deepK is the index's MaxK; dblp-social's deep queries draw k from
// deepMin..deepK.
const (
	deepMin = 81
	deepK   = 100
)

// workload is one traffic mix against one stack.
type workload struct {
	name  string
	stack stackConfig
	mix   traffic
	// openRate is the open-loop phase's offered rate in requests per
	// second, well below peak_qps: near half of it, the two senders
	// queued behind deep queries and CPU steal, and p90 followed the
	// count of such stalls more than the program.
	openRate float64
	// openShare is the share of --seconds spent in the open-loop phase;
	// the closed-loop phase gets the rest.
	openShare float64
	// mutRate is the /v1/mutate rate in batches per second over both
	// phases (0 = none).
	mutRate float64
	// warmup is how many requests a closed loop sends, untimed, before
	// the open-loop phase: enough for dblp's learned index to leave its
	// cold start, which users pay once per process, not per request.
	warmup int
	// sample is how many generated pairs the output check replays.
	sample int
}

var workloads = map[string]workload{
	"dblp-social": {
		name:  "dblp-social",
		stack: stackConfig{graph: "dblp", nodes: 12000, index: true, cacheMB: 64},
		// k is drawn from 1..20 and 81..100 rather than fixed at 10 and
		// 100, so a run does not exhaust the 12k-node graph's unsent
		// (q, k) pairs.
		mix: traffic{repeatsPer10: 3, newK: func(r *rand.Rand) int {
			if r.Intn(10) == 0 {
				return deepMin + r.Intn(deepK-deepMin+1)
			}
			return 1 + r.Intn(20)
		}},
		openRate:  300,
		openShare: 0.6,
		warmup:    2000,
		sample:    40,
	},
	"road-lookup": {
		name:      "road-lookup",
		stack:     stackConfig{graph: "road", cacheMB: 4},
		mix:       traffic{batchEvery: 20, batchSize: 16, newK: func(r *rand.Rand) int { return 1 + r.Intn(30) }},
		openRate:  1000,
		openShare: 0.6,
		warmup:    200,
		sample:    40,
	},
	"cluster-read":  clusterWorkload("cluster-read", 0),
	"cluster-churn": clusterWorkload("cluster-churn", 2),
}

// clusterWorkload is k=10 reads with 30% repeats against two shards of
// two replicas, each an `rkserve -live -shard i/2` on loopback, behind an
// `rkcluster -topology` coordinator with -cache-mb 64; mutRate adds the
// /v1/mutate stream.
func clusterWorkload(name string, mutRate float64) workload {
	return workload{
		name:      name,
		stack:     stackConfig{graph: "dblp", nodes: 12000, cacheMB: 64, shards: 2, replicas: 2},
		mix:       traffic{repeatsPer10: 3, newK: func(*rand.Rand) int { return 10 }},
		openRate:  6,
		openShare: 0.85,
		mutRate:   mutRate,
		warmup:    20,
		sample:    16,
	}
}
