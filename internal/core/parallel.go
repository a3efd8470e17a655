// Intra-query parallel refinement (Options.RefineWorkers > 0).
//
// PR 1 made throughput scale by pooling engines; this file makes a SINGLE
// query scale. The paper's cost model (Sections 3-5) shows rank
// refinements dominate query time, and refinements are independent
// partial Dijkstra searches coupled only through the kRank prune bound —
// so they can run speculatively on worker goroutines while the SDS-tree
// pop loop stays serial on the coordinator.
//
// The scheme preserves byte-identical results relative to a serial run:
//
//   - POP ORDER. The coordinator pops ahead of unapplied ("in-flight")
//     entries only when the peeked distance is strictly below every
//     in-flight node's child floor d(u) + minArc(u) (the smallest weight
//     of u's transpose arcs). A pending expansion can only insert — or
//     decrease-key — nodes at or above that floor, so a pop below it is
//     provably the serial-order pop, including the (dist, id) tie-break.
//     Equal distances stall rather than speculate.
//
//   - DECISIONS. Whether a popped candidate is pruned (Theorem 2),
//     answered by the index, or refined is decided at APPLY time, in pop
//     order, against fully serial state (kRank, Lemma-4 counters,
//     descendant bounds, dictionaries). Workers never touch any of it.
//
//   - REFINEMENTS. Workers run the partial Dijkstra side-effect-free
//     against a live atomic kRank snapshot. The snapshot is monotone
//     nonincreasing and always >= the serial threshold at apply time, so
//     a speculative search stops at or after the serial stopping point;
//     replayRefinement then recovers the serial (bound, exact, log
//     prefix) from the worker's settle log, and the coordinator applies
//     heap offers, descendant bounds, Lemma-4 bumps, and index
//     Offer/RaiseCheck feedback in deterministic pop order.
//
//   - SPECULATION POLICY. A refinement is launched at pop time unless the
//     stale state already proves it pointless: the Theorem-2 components
//     only grow and kRank only falls, so stale-prunable implies
//     prunable-at-apply and skipping such a launch never forfeits a
//     needed refinement. The rare converse (an index entry seen at pop
//     time but evicted by apply time) falls back to an inline serial
//     refinement.
//
//   - WORK STEALING. Jobs are claimed with a CAS by whoever executes them
//     first. When serial order reaches a candidate whose job no worker
//     has started — workers saturated, or a loaded/small machine — the
//     coordinator reclaims it and refines inline instead of sleeping, so
//     the pipeline degrades gracefully toward plain serial execution
//     (same asymptotics, a few atomics of overhead) rather than
//     serializing on scheduler wake-ups. On GOMAXPROCS=1 this makes
//     RefineWorkers > 0 nearly free instead of pathological.
//
// Consequently Result.Entries, Result.Trace, and all decision counters
// (TreeSettled, PrunedByBound, IndexHits, Refinements, RefineAborted,
// bound wins) are byte-identical to a serial run for all four algorithms;
// only RefineSettled (speculative searches may settle further before
// aborting) and the Speculative* counters differ. A stale kRank costs
// extra settled nodes, never wrong answers.
//
// Worker goroutines are started once per engine and park on the job
// channel between queries; a runtime cleanup closes the channel when the
// engine becomes unreachable. Refiner parameters are re-prepared between
// queries, which is race-free because a query never ends with jobs in
// flight (every completion token is consumed before finish).
package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"rkranks/internal/graph"
	"rkranks/internal/rank"
)

// lookaheadSlack is added to 2x the worker count to size the speculation
// window: enough in-flight candidates to keep every worker busy while the
// coordinator applies, without letting snapshots go very stale.
const lookaheadSlack = 2

// parallelState is the per-engine machinery for intra-query parallel
// refinement: one refiner per worker, a window-sized slab of jobs, the
// pending ring, and the per-node child floors for the safe-pop rule.
// Built lazily on the first parallel query.
type parallelState struct {
	workers  int
	refiners []*refiner
	jobsSlab []refineJob
	jobs     chan *refineJob // persistent; workers range over it
	free     []*refineJob    // tokens consumed, ready for reuse
	zombies  []*refineJob    // stolen/unstarted jobs whose token is pending
	ring     []pendingEntry
	minArc   []float64    // min transpose-arc weight per node (+Inf: leaf)
	kRank    atomic.Int32 // live prune-bound snapshot read by workers
}

// refineJob carries one speculative refinement between the coordinator
// and a worker. claimed is CAS-taken by whoever executes the job (worker
// or stealing coordinator); done is a 1-buffered completion token the
// worker always sends after dequeueing, and ready records that the
// coordinator has consumed it.
type refineJob struct {
	p       int32
	dpq     float64
	claimed atomic.Bool
	cancel  atomic.Bool
	done    chan struct{}
	ready   bool
	out     refineResult
	log     []settleRec
}

// pendingEntry is one popped-but-unapplied SDS-tree node (or, for the
// naive pipeline, one candidate id with d unused).
type pendingEntry struct {
	v   int32
	d   float64
	seq int32
	job *refineJob // nil: no speculative refinement launched
}

func newParallelState(g *graph.Graph, workers int) *parallelState {
	window := 2*workers + lookaheadSlack
	ps := &parallelState{
		workers:  workers,
		refiners: make([]*refiner, workers),
		jobsSlab: make([]refineJob, window),
		jobs:     make(chan *refineJob, window),
		free:     make([]*refineJob, 0, window),
		zombies:  make([]*refineJob, 0, window),
		ring:     make([]pendingEntry, window),
		minArc:   minTransposeArcShared(g),
	}
	for i := range ps.refiners {
		ps.refiners[i] = newRefiner(g)
	}
	for i := range ps.jobsSlab {
		ps.jobsSlab[i].done = make(chan struct{}, 1)
	}
	for i := 0; i < workers; i++ {
		rf := ps.refiners[i]
		go func() {
			for j := range ps.jobs {
				if j.claimed.CompareAndSwap(false, true) {
					j.out, j.log = rf.run(j.p, j.dpq, ps.kRank.Load(), &ps.kRank, &j.cancel, j.log[:0])
				}
				j.done <- struct{}{}
			}
		}()
	}
	return ps
}

// minArcCache shares the per-node child floors between every engine over
// the same (immutable) graph — a pool of P engines pays one O(N+M) scan
// and holds one array instead of P. Keys are weak pointers and entries are
// purged by a cleanup when the graph is collected, so the cache never
// keeps a graph alive.
var minArcCache sync.Map // weak.Pointer[graph.Graph] -> []float64

func minTransposeArcShared(g *graph.Graph) []float64 {
	key := weak.Make(g)
	if v, ok := minArcCache.Load(key); ok {
		return v.([]float64)
	}
	m := minTransposeArc(g)
	if v, loaded := minArcCache.LoadOrStore(key, m); loaded {
		return v.([]float64)
	}
	runtime.AddCleanup(g, func(k weak.Pointer[graph.Graph]) { minArcCache.Delete(k) }, key)
	return m
}

// minTransposeArc computes, per node, the smallest weight of any transpose
// out-arc: a floor on how far above d(u) node u's SDS-tree expansion can
// inject (or decrease-key) frontier entries. Leaves get +Inf and never
// block speculation; zero-weight arcs make the floor d(u) itself, which
// degrades that subtree to serial order — still correct, just unsped.
func minTransposeArc(g *graph.Graph) []float64 {
	out := make([]float64, g.N())
	for v := range out {
		m := math.Inf(1)
		_, ws := g.RNeighbors(int32(v))
		for _, w := range ws {
			if w < m {
				m = w
			}
		}
		out[v] = m
	}
	return out
}

// parState returns the engine's parallel machinery, built (and its worker
// goroutines started) on first use.
func (e *Engine) parState() *parallelState {
	if e.par == nil {
		e.par = newParallelState(e.g, e.opts.refineWorkers())
		// Workers park on the job channel between queries; when the
		// engine becomes unreachable the cleanup closes the channel and
		// they exit. The cleanup captures only the channel, so it never
		// keeps the engine alive.
		runtime.AddCleanup(e, func(ch chan *refineJob) { close(ch) }, e.par.jobs)
	}
	return e.par
}

// beginParallel prepares the per-query parallel state. Safe because the
// previous query consumed every completion token, so no worker can be
// touching a refiner or job.
func (e *Engine) beginParallel() *parallelState {
	ps := e.parState()
	for _, rf := range ps.refiners {
		rf.prepare(e.q, e.opts.Counted, e.opts.DisableDistanceCutoff, e.stop)
	}
	ps.kRank.Store(e.heap.kRank())
	ps.free = ps.free[:0]
	for i := range ps.jobsSlab {
		ps.free = append(ps.free, &ps.jobsSlab[i])
	}
	ps.zombies = ps.zombies[:0]
	return ps
}

// endParallel consumes the completion tokens of stolen jobs so the next
// query (or engine reuse) starts with a quiescent slab. The workers are
// alive, so every token arrives as soon as the channel drains.
func (e *Engine) endParallel(ps *parallelState) {
	for _, j := range ps.zombies {
		waitJob(j)
	}
	ps.zombies = ps.zombies[:0]
}

// acquireJob returns a reusable job slot, reclaiming stolen jobs whose
// tokens have since arrived; nil when none is available (the caller then
// skips speculation — the candidate will be refined inline at apply time).
func (ps *parallelState) acquireJob() *refineJob {
	if len(ps.free) == 0 {
		zs := ps.zombies[:0]
		for _, j := range ps.zombies {
			if pollJob(j) {
				ps.free = append(ps.free, j)
			} else {
				zs = append(zs, j)
			}
		}
		ps.zombies = zs
		if len(ps.free) == 0 {
			return nil
		}
	}
	j := ps.free[len(ps.free)-1]
	ps.free = ps.free[:len(ps.free)-1]
	return j
}

func pollJob(j *refineJob) bool {
	if j.ready {
		return true
	}
	select {
	case <-j.done:
		j.ready = true
		return true
	default:
		return false
	}
}

func waitJob(j *refineJob) {
	if !j.ready {
		<-j.done
		j.ready = true
	}
}

// treeParallel runs the Static, Dynamic, or Indexed engine with
// speculative parallel refinement. See the comment at the top of this
// file for the scheme and its determinism argument.
func (e *Engine) treeParallel(algo Algorithm, q int32, k int) *Result {
	e.begin(q, k, algo)
	if algo == Indexed {
		e.seedFromIndex()
	}
	e.tree.ResetReverse(q)
	ps := e.beginParallel()

	window := len(ps.ring)
	ring := ps.ring
	head, count := 0, 0

	for !e.stopped() {
		// Eagerly apply every finished head: earlier side effects tighten
		// kRank and the Lemma-4 counters, which both sharpens later
		// submission decisions and lets in-flight workers abort sooner.
		for count > 0 && !e.stopped() {
			en := &ring[head]
			if en.job != nil && !pollJob(en.job) {
				break
			}
			e.applyEntry(algo, en, ps)
			head = (head + 1) % window
			count--
		}
		if e.stopped() {
			break
		}
		if count < window {
			if v, d, ok := e.tree.Peek(); ok && (count == 0 || d < specBarrier(ring, head, count, window, ps.minArc)) {
				e.tree.Pop()
				seq := e.markTreeSettled(v)
				en := pendingEntry{v: v, d: d, seq: seq}
				en.job = e.maybeSpeculate(algo, v, d, ps)
				ring[(head+count)%window] = en
				count++
				continue
			}
		}
		if count > 0 {
			e.applyEntry(algo, &ring[head], ps)
			head = (head + 1) % window
			count--
			continue
		}
		break // frontier exhausted, nothing pending
	}

	e.drainPending(ps, ring, head, count, window)
	e.endParallel(ps)
	return e.finish()
}

// drainPending discards every popped-but-unapplied entry — the
// cancellation exit path (count is always 0 on a normal exit). Discarded
// jobs are canceled or reclaimed, never applied, so a canceled query
// cannot feed truncated refinement logs into the heap, the Lemma-4
// counters, or a shared index.
func (e *Engine) drainPending(ps *parallelState, ring []pendingEntry, head, count, window int) {
	for i := 0; i < count; i++ {
		en := &ring[(head+i)%window]
		e.discardJob(ps, en.job)
		en.job = nil
	}
}

// specBarrier returns the exclusive distance bound below which the next
// tree pop is provably the serial-order pop: every in-flight entry u may
// still expand at apply time, injecting children no closer than
// d(u) + minArc(u). Ties must stall — an injected child at exactly the
// peeked distance could carry a smaller id and would pop first serially.
func specBarrier(ring []pendingEntry, head, count, window int, minArc []float64) float64 {
	barrier := math.Inf(1)
	for i := 0; i < count; i++ {
		en := &ring[(head+i)%window]
		if b := en.d + minArc[en.v]; b < barrier {
			barrier = b
		}
	}
	return barrier
}

// maybeSpeculate decides, on stale (pop-time) state, whether refining v is
// potentially needed, and if so launches a worker job for it. Skipping is
// safe exactly when the stale state already PROVES the apply-time decision
// (see the file comment); when in doubt it launches and lets applyEntry
// discard.
func (e *Engine) maybeSpeculate(algo Algorithm, v int32, d float64, ps *parallelState) *refineJob {
	if v == e.q || !e.candidate(v) {
		return nil
	}
	if algo != Static {
		var check int32
		if e.indexing {
			check = e.idx.Check(v)
			if _, known := e.idx.LookupRank(e.q, v); known {
				return nil
			}
		}
		if e.lowerBoundAt(v, check, false) > e.heap.kRank() {
			return nil // already provably pruned at apply time
		}
	}
	j := ps.acquireJob()
	if j == nil {
		return nil
	}
	e.submitJob(ps, j, v, d)
	return j
}

func (e *Engine) submitJob(ps *parallelState, j *refineJob, p int32, dpq float64) {
	j.p, j.dpq = p, dpq
	j.ready = false
	j.claimed.Store(false)
	j.cancel.Store(false)
	e.stats.SpeculativeRefinements++
	ps.jobs <- j // never blocks: the channel is window-buffered
}

// applyEntry processes one pending entry in pop order against fully
// serial state, mirroring the serial engines' dequeue handling decision
// for decision.
func (e *Engine) applyEntry(algo Algorithm, en *pendingEntry, ps *parallelState) {
	v, d := en.v, en.d
	e.stats.TreeSettled++
	if e.pend != nil && algo != Static {
		e.refineParent(v, false) // as the serial bounded engines do; see refineParent
	}
	switch {
	case v == e.q:
		e.discardJob(ps, en.job)
		e.tree.Expand(v, d)
	case !e.candidate(v):
		e.discardJob(ps, en.job)
		e.passThrough(v, d)
	default:
		e.applyCandidate(algo, en, ps)
	}
	en.job = nil
	ps.kRank.Store(e.heap.kRank())
}

func (e *Engine) applyCandidate(algo Algorithm, en *pendingEntry, ps *parallelState) {
	v, d := en.v, en.d
	var check int32
	if e.indexing {
		check = e.idx.Check(v) // before LookupRank; see indexed()
		if r, known := e.idx.LookupRank(e.q, v); known {
			e.discardJob(ps, en.job)
			e.indexHit(v, d, r)
			return
		}
	}
	if algo != Static {
		if lb := e.lowerBound(v, check); lb > e.heap.kRank() {
			e.discardJob(ps, en.job)
			e.skipCandidate(v, d, lb)
			return
		}
	}
	j := en.job
	if j == nil {
		// Speculation was skipped (stale index hit since evicted, or no
		// free job slot); refine inline with exact serial semantics.
		e.refineAndSettle(v, d, en.seq)
		return
	}
	if e.stealJob(ps, j) {
		e.refineAndSettle(v, d, en.seq)
		return
	}
	waitJob(j)
	if j.out.stopped {
		// The worker stopped mid-search because the query's context was
		// canceled; its log is truncated below any serial stop point and
		// must not be replayed or applied. The coordinator sees the stop
		// flag on its next loop check and abandons the query.
		ps.free = append(ps.free, j)
		return
	}
	bound, exact, stopLevel, n := e.replayAndAccount(j)
	e.applyRefineLog(v, j.log[:n], bound, exact, stopLevel, en.seq)
	ps.free = append(ps.free, j)
	e.settleRefined(v, d, bound, exact)
}

// stealJob reclaims a launched refinement no worker has started yet: the
// coordinator refines inline rather than sleeping until a worker gets
// scheduled. Reports whether the steal succeeded (the job's result must
// then be ignored; only its completion token is still owed).
func (e *Engine) stealJob(ps *parallelState, j *refineJob) bool {
	if !j.claimed.CompareAndSwap(false, true) {
		return false
	}
	e.stats.SpeculativeStolen++
	ps.zombies = append(ps.zombies, j)
	return true
}

// replayAndAccount waits for a worker-executed refinement, replays its log
// against the serial prune bound, and applies the serial work accounting
// (shared by the tree and naive apply paths so the parity rules live in
// one place).
func (e *Engine) replayAndAccount(j *refineJob) (bound int32, exact bool, stopLevel float64, n int) {
	waitJob(j)
	bound, exact, stopLevel, n = replayRefinement(e.q, j.log, e.heap.kRank())
	e.stats.Refinements++
	e.stats.RefineSettled += j.out.settled
	if !exact && bound != rank.Unreachable {
		e.stats.RefineAborted++
	}
	return bound, exact, stopLevel, n
}

// discardJob cancels a speculative refinement whose result the
// serial-order decision made unnecessary. The coordinator never blocks on
// it: an unstarted job is reclaimed outright, and a running one is parked
// on the zombie list (its worker notices the cancel flag within a bounded
// number of settles) so the serial pop loop keeps moving.
func (e *Engine) discardJob(ps *parallelState, j *refineJob) {
	if j == nil {
		return
	}
	if e.stealJob(ps, j) {
		// Reclaimed before any worker touched it: nothing ran, nothing
		// is wasted; only the completion token is still owed.
		return
	}
	j.cancel.Store(true)
	e.stats.SpeculativeWasted++
	ps.zombies = append(ps.zombies, j)
}

// naiveParallel pipelines the Section-2 baseline: every candidate needs a
// refinement and refinements are fully independent, so the window simply
// streams candidate ids through the workers while offers are applied in
// id order — reproducing the serial result byte-for-byte via the same
// replay (and the same inline/steal fallbacks) as the tree engines.
func (e *Engine) naiveParallel(q int32, k int) *Result {
	e.begin(q, k, Naive)
	ps := e.beginParallel()

	window := len(ps.ring)
	ring := ps.ring
	head, count := 0, 0
	n := int32(e.g.N())
	next := int32(0)
	inf := math.Inf(1)
	for !e.stopped() {
		for count < window && next < n {
			p := next
			next++
			if p == q || !e.candidate(p) {
				continue
			}
			en := pendingEntry{v: p, d: inf}
			if j := ps.acquireJob(); j != nil {
				e.submitJob(ps, j, p, inf)
				en.job = j
			}
			ring[(head+count)%window] = en
			count++
		}
		if count == 0 {
			break
		}
		en := &ring[head]
		head = (head + 1) % window
		count--
		e.applyNaive(en, ps)
		en.job = nil
		ps.kRank.Store(e.heap.kRank())
	}

	e.drainPending(ps, ring, head, count, window)
	e.endParallel(ps)
	return e.finish()
}

func (e *Engine) applyNaive(en *pendingEntry, ps *parallelState) {
	j := en.job
	var bound int32
	var exact bool
	switch {
	case j == nil:
		bound, exact = e.refine(en.v, en.d, 0)
	case e.stealJob(ps, j):
		bound, exact = e.refine(en.v, en.d, 0)
	default:
		waitJob(j)
		if j.out.stopped {
			// Canceled mid-search (see applyCandidate): discard unread.
			ps.free = append(ps.free, j)
			return
		}
		bound, exact, _, _ = e.replayAndAccount(j)
		ps.free = append(ps.free, j)
	}
	if exact && bound <= e.heap.kRank() {
		e.offer(en.v, bound)
	}
}
