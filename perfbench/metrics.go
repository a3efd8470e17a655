package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs and whether at
// least minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := max(1, int(math.Ceil(p*float64(len(s)))))
	return s[rank-1], len(s)-rank >= minBeyond
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report is a run's metrics plus the notes printed beside them.
type report struct {
	metrics []metric
	notes   []string
	errs    []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// pct adds percentile p of xs. A percentile the sample cannot support is
// refused: an error for an end-to-end metric (strict), otherwise 0 with
// a note.
func (r *report) pct(name, unit string, xs []float64, p float64, strict bool) {
	v, ok := percentile(xs, p)
	if !ok {
		msg := fmt.Sprintf("%s refused: %d samples leave fewer than %d beyond p%g", name, len(xs), minBeyond, p*100)
		if strict {
			r.errs = append(r.errs, msg)
			return
		}
		r.note("%s", msg)
		v = 0
	}
	r.add(name, unit, v)
}

// endToEnd derives the untraced run's metrics.
func endToEnd(setups []float64, heapMB float64, m *measured) *report {
	r := &report{}
	r.add("setup_s", "s", median(setups))
	r.add("heap_mb", "MB", heapMB)
	q := m.open.queryLat()
	r.pct("query_p50_ms", "ms", q, 0.5, true)
	r.pct("query_p90_ms", "ms", q, 0.9, true)
	r.note("setup_s samples %v s; query percentiles over %d open-loop queries", roundAll(setups), len(q))
	// peak_qps is printed, not gated: the sandbox's CPU speed drifts by
	// a fifth over a run's length, and throughput follows it.
	r.note("peak_qps %.1f 1/s; %.1f us of process CPU per answered query", m.peak(),
		float64(m.closed.cpu)/float64(time.Microsecond)/float64(max(1, m.closed.answered)))
	return r
}

// latencyNotes describes every latency class of the open-loop phase and
// the mutation stream, with the percentiles their samples support.
func (m *measured) latencyNotes(r *report) {
	lat := map[string][]float64{}
	for cls, xs := range m.open.lat {
		lat[cls] = xs
	}
	if m.mut != nil {
		lat["mutate"] = m.mut.p.lat["mutate"]
	}
	classes := make([]string, 0, len(lat))
	for cls := range lat {
		classes = append(classes, cls)
	}
	sort.Strings(classes)
	for _, cls := range classes {
		xs := lat[cls]
		line := fmt.Sprintf("%s latency from due time, %d samples:", cls, len(xs))
		for _, p := range []float64{0.5, 0.9, 0.99} {
			if v, ok := percentile(xs, p); ok {
				line += fmt.Sprintf(" p%g %.3f ms", p*100, v)
			} else {
				line += fmt.Sprintf(" p%g refused", p*100)
			}
		}
		r.note("%s", line)
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// perLayer derives the traced run's metrics from its spans. Self time is
// a span minus the union of its children's spans within it. Layer
// numbers only some stacks have go to the notes.
func perLayer(st *stack, m *measured, tr *tracer, untracedPeak float64) *report {
	spans := slices.Clone(tr.spans)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].id != spans[j].id {
			return spans[i].id < spans[j].id
		}
		return spans[i].start < spans[j].start
	})
	var (
		clientSelf, serverSelf, cacheSelf   []float64
		coreQuery, coreSelf                 []float64
		mutateSelf, patch, rebuild          []float64
		backendCalls, hits, rejected        int
		coreQueries, shardCalls             int
		batchNS, batchQueries               int64
		refinements, settled, indexHits, nq int64
	)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].id == spans[lo].id {
			hi++
		}
		g := spans[lo:hi]
		lo = hi
		by := func(l layer, r route) []span {
			var out []span
			for _, s := range g {
				if s.layer == l && s.route == r {
					out = append(out, s)
				}
			}
			return out
		}
		for _, s := range g {
			if (s.layer == layerServer || s.layer == layerShardServer) && s.status == 429 {
				rejected++
			}
		}
		for _, c := range by(layerClient, routeQuery) {
			clientSelf = append(clientSelf, us(self(c, by(layerServer, routeQuery))))
		}
		for _, s := range by(layerServer, routeQuery) {
			serverSelf = append(serverSelf, us(self(s, by(layerBackend, routeQuery))))
		}
		cores := by(layerCore, routeQuery)
		for _, b := range by(layerBackend, routeQuery) {
			backendCalls++
			if len(cores) == 0 {
				hits++
			}
			cacheSelf = append(cacheSelf, us(self(b, cores)))
		}
		shards := by(layerShardServer, routeQuery)
		for _, c := range cores {
			if c.status != 0 {
				continue
			}
			coreQueries++
			shardCalls += len(shards)
			coreQuery = append(coreQuery, us(c.dur()))
			coreSelf = append(coreSelf, us(self(c, shards)))
		}
		for _, c := range append(cores, by(layerCore, routeBatch)...) {
			refinements += c.refinements
			settled += c.settled
			indexHits += c.indexHits
			nq += int64(c.queries)
			if c.route == routeBatch {
				batchNS += int64(c.dur())
				batchQueries += int64(c.queries)
			}
		}
		shardMut := by(layerShardServer, routeMutate)
		for _, c := range by(layerCore, routeMutate) {
			mutateSelf = append(mutateSelf, ms(self(c, shardMut)))
		}
		for _, s := range shardMut {
			if m.mut != nil && m.mut.kind[s.id] {
				rebuild = append(rebuild, ms(s.dur()))
			} else {
				patch = append(patch, ms(s.dur()))
			}
		}
	}
	per := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	r := &report{}
	r.pct("api.client_self_us_p50", "us", clientSelf, 0.5, false)
	r.pct("server.self_us_p50", "us", serverSelf, 0.5, false)
	r.add("server.rejected", "count", float64(rejected))
	r.add("cache.hit_rate", "ratio", per(int64(hits), int64(backendCalls)))
	r.pct("cache.self_us_p50", "us", cacheSelf, 0.5, false)
	r.pct("core.query_us_p50", "us", coreQuery, 0.5, false)
	r.pct("core.query_us_p90", "us", coreQuery, 0.9, false)
	r.pct("core.self_us_p50", "us", coreSelf, 0.5, false)
	r.add("core.refinements_per_query", "count", per(refinements, nq))
	r.add("sssp.settled_per_query", "count", per(settled, nq))
	r.add("ridx.index_hits_per_query", "count", per(indexHits, nq))
	r.add("cluster.work_amplification", "ratio", per(m.check.stackRef, m.check.refRef))
	r.add("cluster.shard_calls_per_query", "count", per(int64(shardCalls), int64(coreQueries)))
	r.add("gen.graph_s", "s", st.genS)
	r.add("api.error_rate", "ratio", m.errorRate())
	r.add("trace.peak_qps_ratio", "ratio", m.peak()/untracedPeak)

	if batchQueries > 0 {
		r.note("core.batch_us_per_query %.2f us over %d batched queries", per(batchNS, batchQueries)/1e3, batchQueries)
	}
	if st.indexS > 0 {
		r.note("ridx.build_s %.4f s", st.indexS)
	}
	if m.mut != nil {
		for _, x := range []struct {
			name string
			xs   []float64
		}{{"cluster.mutate_self_ms_p50", mutateSelf}, {"live.patch_ms_p50", patch}, {"live.rebuild_ms_p50", rebuild}} {
			if v, ok := percentile(x.xs, 0.5); ok {
				r.note("%s %.3f ms over %d spans", x.name, v, len(x.xs))
			} else {
				r.note("%s refused: %d spans", x.name, len(x.xs))
			}
		}
	}
	r.note("spans %d; cluster.work_amplification = %d stack / %d reference refinements on the check sample",
		len(spans), m.check.stackRef, m.check.refRef)
	r.note("tracing overhead: traced peak_qps %.1f against untraced %.1f", m.peak(), untracedPeak)
	return r
}

// self is parent's duration minus the union of children within it.
func self(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	end := parent.start
	for _, v := range ivs {
		a := max(v.a, end)
		if v.b > a {
			covered += v.b - a
			end = v.b
		}
	}
	return parent.dur() - time.Duration(covered)
}
