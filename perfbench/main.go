// Command perfbench is the repository's benchmark: it boots the serving
// stacks cmd/rkserve and cmd/rkcluster assemble, in process on loopback
// HTTP, drives one workload through them, checks the answers against a
// single-node Dynamic reference and prints the metrics. See README.md.
//
//	perfbench --workload dblp-social --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// the run fails or any answer differs from the reference.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"rkranks/internal/graph"
)

// setupReps is how many times an untraced run builds its stack;
// setup_s is the median.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the requests and the mutations")
	seconds := fs.Int("seconds", 30, "measured seconds: the open-loop phase, then the closed-loop phase")
	traceOn := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "perfbench-trace"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seconds >= 1 --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	ctx := context.Background()
	var rep *report
	var m *measured
	var err error
	if *traceOn == 1 {
		rep, m, err = tracedRun(ctx, w, *seed, d, filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.tsv", w.name, *seed)))
	} else {
		rep, m, err = untracedRun(ctx, w, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	m.describe(w, rep)
	m.latencyNotes(rep)
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	mets := make(map[string]any, len(rep.metrics))
	for _, x := range rep.metrics {
		fmt.Printf("%-32s %14.4f %s\n", x.name, x.value, x.unit)
		mets[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	if len(rep.errs) > 0 {
		for _, e := range rep.errs {
			fmt.Fprintln(os.Stderr, "perfbench:", e)
		}
		return 1
	}
	out := map[string]any{
		"correct":   m.correct(),
		"attempted": m.attempted(),
		"failed":    m.failed(),
		"metrics":   mets,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !m.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// measured is one pass of a workload's phases over a booted stack.
type measured struct {
	open, closed *phase
	closedFor    time.Duration
	mut          *mutator
	ops          *opStream
	check        *checkResult
}

// peak is the closed-loop phase's throughput in queries per second.
func (m *measured) peak() float64 { return float64(m.closed.answered) / m.closedFor.Seconds() }

func (m *measured) phases() []*phase {
	ps := []*phase{m.open, m.closed}
	if m.mut != nil {
		ps = append(ps, m.mut.p)
	}
	return ps
}

func (m *measured) attempted() int {
	n := m.check.attempted
	for _, p := range m.phases() {
		n += p.attempted
	}
	return n
}

func (m *measured) failed() int {
	n := m.check.failed
	for _, p := range m.phases() {
		n += p.failed
	}
	return n
}

func (m *measured) errorRate() float64 { return float64(m.failed()) / float64(m.attempted()) }

func (m *measured) correct() bool { return m.check.failed == 0 }

// queryLat is the latency of the phase's main /v1/query class.
// dblp-social's deep class stays out: the p90 of the mixture falls
// between the two classes and swung from 1.6 to 3.8 ms across seeds.
func (p *phase) queryLat() []float64 { return p.lat["query"] }

// describe adds the generator's honesty notes: lateness, repeat share,
// mutation counts and failures by class.
func (m *measured) describe(w workload, r *report) {
	late := m.open.lateness
	p50, _ := percentile(late, 0.5)
	p99, _ := percentile(late, 0.99)
	r.note("workload %s: open loop %.0f req/s for %d requests, closed loop %d clients for %.1fs",
		w.name, w.openRate, m.open.attempted, readers(w), m.closedFor.Seconds())
	r.note("generator lateness (send - due) ms: p50 %.3f p99 %.3f max %.3f over %d sends",
		p50, p99, slices.Max(append([]float64{0}, late...)), len(late))
	o := m.ops
	r.note("requests: %d queries (%d repeats = %.1f%%, %d with k >= %d), %d batches",
		o.queries, o.repeats, 100*float64(o.repeats)/float64(max(1, o.queries)), o.deep, deepMin, o.batches)
	if m.mut != nil {
		r.note("mutations: %d batches attempted, %d weight-patch and %d topology batches applied",
			m.mut.p.attempted, m.mut.patches, m.mut.rebuild)
	}
	for _, p := range m.phases() {
		for cls, n := range p.errs {
			r.note("failed: %d x %s", n, cls)
		}
	}
	r.note("error_rate %.5f (%d of %d operations failed)", m.errorRate(), m.failed(), m.attempted())
	r.note("output check: %d answers compared, %d mismatched", m.check.attempted, m.check.failed)
	for i, mm := range m.check.mismatches {
		if i == 5 {
			r.note("... %d more mismatches", len(m.check.mismatches)-i)
			break
		}
		r.note("mismatch: %s", mm)
	}
	if o.exhausted > 0 {
		r.note("generator: pair space exhausted; %d new pairs were drawn from sent ones", o.exhausted)
	}
}

// readers is the number of read senders: one per CPU, less the mutation
// sender where the workload has one.
func readers(w workload) int {
	n := runtime.NumCPU()
	if w.mutRate > 0 {
		n--
	}
	return max(1, n)
}

// measure runs the open-loop phase, the closed-loop phase and the output
// check over st. tr, when not nil, records client spans.
func measure(ctx context.Context, w workload, seed int64, d time.Duration, st *stack, tr *tracer) (*measured, error) {
	m := &measured{ops: newOpStream(seed, st.graph.N(), w.mix)}
	warm, _ := closedLoop(ctx, st.client, m.ops, w.warmup, time.Hour, readers(w), nil)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	if w.mutRate > 0 {
		m.mut = startMutator(ctx, st.client, newMutStream(seed, st.graph), w.mutRate, tr)
	}
	openFor := time.Duration(float64(d) * w.openShare)
	m.open = openLoop(ctx, st.client, m.ops, w.openRate, int(w.openRate*openFor.Seconds()), readers(w), tr)
	m.closed, m.closedFor = closedLoop(ctx, st.client, m.ops, -1, d-openFor, readers(w), tr)
	var batches [][]graph.Mutation
	if m.mut != nil {
		m.mut.halt()
		batches = m.mut.applied
	}
	ref, gen, err := newReference(ctx, w.stack, batches)
	if err != nil {
		return nil, err
	}
	if m.check, err = check(ctx, st.client, ref, gen, m.ops.sample(w.sample)); err != nil {
		return nil, err
	}
	return m, nil
}

// untracedRun builds the stack setupReps times and measures the last.
// The heap is read after the first build: torn-down stacks leave their
// graphs behind (graph.Packed memoizes views in a package-level map that
// is never pruned), so later readings would count them.
func untracedRun(ctx context.Context, w workload, seed int64, d time.Duration) (*report, *measured, error) {
	var setups []float64
	var heap float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if st, err = buildStack(ctx, w.stack, nil); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			heap = heapMB()
		}
	}
	defer st.close()
	m, err := measure(ctx, w, seed, d, st, nil)
	if err != nil {
		return nil, nil, err
	}
	return endToEnd(setups, heap, m), m, nil
}

// tracedRun measures an untraced stack for the overhead baseline, then a
// traced one, and writes the traced spans to path.
func tracedRun(ctx context.Context, w workload, seed int64, d time.Duration, path string) (*report, *measured, error) {
	base, err := buildStack(ctx, w.stack, nil)
	if err != nil {
		return nil, nil, err
	}
	m0, err := measure(ctx, w, seed, d, base, nil)
	if cerr := base.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	st, err := buildStack(ctx, w.stack, tr)
	if err != nil {
		return nil, nil, err
	}
	m, err := measure(ctx, w, seed, d, st, tr)
	// Closing waits for every handler, so no span is still being added.
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	// The baseline's answers are checked too; its mismatches count.
	m.check.attempted += m0.check.attempted
	m.check.failed += m0.check.failed
	m.check.mismatches = append(m.check.mismatches, m0.check.mismatches...)
	rep := perLayer(st, m, tr, m0.peak())
	if err := tr.write(path); err != nil {
		return nil, nil, err
	}
	rep.note("spans written to %s", path)
	return rep, m, nil
}

// heapMB is the Go heap in use after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
