package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/obs"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
	"rkranks/internal/sssp"
)

// Engine evaluates reverse k-ranks queries against one graph. It owns
// reusable per-query workspaces (Dijkstra searches plus epoch-stamped
// node arrays), so queries after the first allocate nothing. A query runs
// entirely on its caller's goroutine.
//
// An Engine is not safe for concurrent use; create one per goroutine. An
// attached index is both read and written by Indexed queries (that is the
// point of the dynamic index): concurrent engines may share one index if
// and only if it is a concurrency-safe implementation (ridx.ShardedIndex,
// reported by Index.Concurrent) — a Pool built with NewPoolWithIndex
// arranges exactly that. A ridx.SerialIndex must stay private to one
// engine.
type Engine struct {
	g      *graph.Graph
	opts   Options
	idx    ridx.Index
	labels *hub.Labels // from Options.Labels; enables HubLabel queries

	tree *sssp.Search // transpose traversal from q (SDS-tree)
	rf   *refiner     // refinement workspace (see refiner.go)

	epoch   uint32
	lcount  []int32 // Lemma-4 visit counters
	lstamp  []uint32
	nrank   []int32 // recorded rank (or lower bound) of processed nodes
	nstamp  []uint32
	ostamp  []uint32 // nodes already offered to the result heap
	lbseen  []uint32 // hub-label scan dedupe stamps (lazily allocated)
	lbepoch uint32   // epoch for lbseen; bumped once per label scan
	sseq    []int32  // SDS-tree pop sequence numbers (see markTreeSettled)
	sstamp  []uint32
	pend    []uint32 // out-of-class nodes awaiting refineParent; nil when unmasked
	seq     int32    // pops so far this query
	scratch []settleRec

	heap    resultHeap
	stats   Stats
	q       int32
	k       int
	maxRank int32 // the query's rank ceiling (WithMaxRank), 0 for none

	// arena is the shared-traversal batch scratch, non-nil only between
	// BeginBatch/EndBatch (see batchexec.go). batch retains the allocation
	// across batches so a pool slot's arena is built once.
	arena *batchArena
	batch *batchArena

	tracing  bool
	traceLog []TraceEvent

	// stop is the current query's cancellation flag, non-nil only for
	// QueryContext calls whose context can actually be canceled. It is a
	// fresh allocation per such query so a context firing late (after the
	// query returned) writes to a stale object instead of poisoning the
	// next query. Refiners poll it on a coarse settle cadence; the
	// traversal loops poll it per pop.
	stop *atomic.Bool

	// per-query feature switches
	bounds   Bounds
	useLc    bool // maintain lcount during refinements
	indexing bool // feed refinements back into the index
}

type settleRec struct {
	node int32
	dist float64
	rank int32
}

// NewEngine returns an engine over g with the given options.
func NewEngine(g *graph.Graph, opts Options) *Engine {
	n := g.N()
	if opts.Candidates != nil && len(opts.Candidates) != n {
		panic(fmt.Sprintf("core: Candidates length %d != n %d", len(opts.Candidates), n))
	}
	if opts.Counted != nil && len(opts.Counted) != n {
		panic(fmt.Sprintf("core: Counted length %d != n %d", len(opts.Counted), n))
	}
	if l := opts.Labels; l != nil {
		if l.N() != n {
			panic(fmt.Sprintf("core: labels cover %d nodes, graph has %d", l.N(), n))
		}
		if l.Directed() != g.Directed() {
			panic(fmt.Sprintf("core: labels directed=%v, graph directed=%v", l.Directed(), g.Directed()))
		}
	}
	e := &Engine{
		g:      g,
		opts:   opts,
		labels: opts.Labels,
		tree:   sssp.New(g),
		rf:     newRefiner(g),
		lcount: make([]int32, n),
		lstamp: make([]uint32, n),
		nrank:  make([]int32, n),
		nstamp: make([]uint32, n),
		ostamp: make([]uint32, n),
		sseq:   make([]int32, n),
		sstamp: make([]uint32, n),
	}
	if opts.Candidates != nil {
		e.pend = make([]uint32, n)
	}
	return e
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Options returns the engine's options.
func (e *Engine) Options() Options { return e.opts }

// SetIndex attaches (or detaches, with nil) the dynamic index used by
// Indexed queries. The index must cover the engine's graph.
func (e *Engine) SetIndex(ix ridx.Index) {
	if ix != nil && ix.N() != e.g.N() {
		panic(fmt.Sprintf("core: index covers %d nodes, graph has %d", ix.N(), e.g.N()))
	}
	e.idx = ix
}

// Index returns the attached index, if any.
func (e *Engine) Index() ridx.Index { return e.idx }

// Query runs algorithm a for query node q with result size k.
func (e *Engine) Query(a Algorithm, q int32, k int) (*Result, error) {
	return e.QueryContext(context.Background(), a, q, k)
}

// maxRankKey is the context key of a query's rank ceiling.
type maxRankKey struct{}

// WithMaxRank returns a context whose queries run under the rank ceiling
// r; r <= 0 adds none and returns ctx as is. The answer is then the canonical minimum k by
// (rank, node id) among candidates with Rank <= r: exactly the unbounded
// answer's prefix with rank <= r. The engine prunes against r from its
// first pop, so a ceiling at or below the final kRank saves every
// refinement spent before the result heap fills.
//
// The ceiling rides the context, so every layer between a request and its
// engine (server, cache, live store, pool, cluster backends) passes it
// through unchanged; the layers that key or forward answers (the response
// cache, a remote shard) read it with MaxRank. A backend that ignores it
// answers the unbounded query, whose prefix is the bounded answer.
func WithMaxRank(ctx context.Context, r int32) context.Context {
	if r <= 0 {
		return ctx
	}
	return context.WithValue(ctx, maxRankKey{}, r)
}

// MaxRank returns the rank ceiling ctx carries (see WithMaxRank), or 0.
func MaxRank(ctx context.Context) int32 {
	r, _ := ctx.Value(maxRankKey{}).(int32)
	return r
}

// QueryContext is Query with cancellation: when ctx is canceled or its
// deadline passes, the traversal and any in-flight rank refinement stop
// within a bounded number of settles and the call returns ctx's error. A
// canceled query leaves the engine (and any shared index) in a consistent
// state — cancellation discards work, it never applies partial results —
// so the engine is immediately reusable. A rank ceiling on ctx (see
// WithMaxRank) bounds the answer.
func (e *Engine) QueryContext(ctx context.Context, a Algorithm, q int32, k int) (*Result, error) {
	if err := validateRequest(a, k); err != nil {
		return nil, err
	}
	if err := e.checkArgs(q); err != nil {
		return nil, err
	}
	if a == Indexed {
		if e.idx == nil {
			return nil, fmt.Errorf("core: Indexed query requires SetIndex: %w", ErrIndexRequired)
		}
		if k > e.idx.MaxK() {
			return nil, fmt.Errorf("core: k=%d exceeds index K=%d: %w", k, e.idx.MaxK(), ErrInvalidK)
		}
	}
	if a == HubLabel && e.labels == nil {
		return nil, fmt.Errorf("core: HubLabel query requires Options.Labels: %w", ErrLabelsRequired)
	}
	e.stop = nil
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: query not started: %w", err)
		}
		flag := new(atomic.Bool)
		e.stop = flag
		defer context.AfterFunc(ctx, func() { flag.Store(true) })()
	}
	// Engine time is one span: label.scan for HubLabel (label pruning
	// interleaved with fallback refinement), engine.refine otherwise. The
	// span machinery is nil-safe and allocation-free, so an untraced
	// context costs one Value lookup and the traced path stays inside the
	// steady-state alloc budget (see TestTracedQueryAllocations).
	tr := obs.FromContext(ctx)
	stage := obs.StageEngineRefine
	if a == HubLabel {
		stage = obs.StageLabelScan
	}
	sp := tr.Begin(stage)
	e.maxRank = MaxRank(ctx)
	res := e.dispatch(a, q, k)
	if sp != nil {
		sp.SetAttr("refinements", int64(e.stats.Refinements))
		sp.SetAttr("pruned_by_bound", int64(e.stats.PrunedByBound))
		if a == HubLabel {
			sp.SetAttr("label_pruned", int64(e.stats.LabelPruned))
			sp.SetAttr("label_fallbacks", int64(e.stats.LabelFallbacks))
		} else {
			sp.SetAttr("index_hits", int64(e.stats.IndexHits))
			sp.SetAttr("tree_settled", int64(e.stats.TreeSettled))
		}
		tr.End(sp)
	}
	if e.stopped() {
		return nil, fmt.Errorf("core: query canceled: %w", ctx.Err())
	}
	return res, nil
}

// dispatch routes a validated query to its engine implementation.
func (e *Engine) dispatch(a Algorithm, q int32, k int) *Result {
	switch a {
	case HubLabel:
		return e.hubLabel(q, k)
	case Naive:
		return e.naive(q, k)
	case Static:
		return e.static(q, k)
	case Dynamic:
		return e.dynamic(q, k)
	default:
		return e.indexed(q, k)
	}
}

// stopped reports whether the current query's context has been canceled.
func (e *Engine) stopped() bool {
	return e.stop != nil && e.stop.Load()
}

func (e *Engine) checkArgs(q int32) error {
	if q < 0 || int(q) >= e.g.N() {
		return fmt.Errorf("core: query node %d out of range [0,%d): %w", q, e.g.N(), ErrInvalidQueryNode)
	}
	if e.opts.Counted != nil && !e.opts.Counted[q] {
		return fmt.Errorf("core: bichromatic query node %d is not in the counted class V2: %w", q, ErrInvalidQueryNode)
	}
	return nil
}

// begin resets per-query state.
func (e *Engine) begin(q int32, k int, a Algorithm) {
	e.epoch++
	if e.epoch == 0 {
		clear(e.lstamp)
		clear(e.nstamp)
		clear(e.ostamp)
		clear(e.sstamp)
		clear(e.pend)
		e.epoch = 1
	}
	e.q = q
	e.k = k
	e.seq = 0
	e.heap.reset(k)
	if e.maxRank > 0 {
		e.heap.ceil = e.maxRank
	}
	e.stats = Stats{}
	e.traceLog = nil
	e.bounds = e.opts.effectiveBounds(e.g)
	e.useLc = a != Naive && a != Static && e.bounds&BoundCount != 0
	e.indexing = a == Indexed
	e.rf.prepare(q, e.opts.Counted, e.opts.DisableDistanceCutoff, e.stop)
}

func (e *Engine) candidate(v int32) bool {
	return e.opts.Candidates == nil || e.opts.Candidates[v]
}

func (e *Engine) counted(v int32) bool {
	return e.opts.Counted == nil || e.opts.Counted[v]
}

// markTreeSettled records the pop order of the SDS-tree traversal and
// returns v's sequence number. The Lemma-4 bookkeeping asks "was t settled
// when candidate p was refined?". refineParent refines a pending
// out-of-class parent p only when p's first child is dequeued, after
// later pops have settled more of the tree, so the engine compares pop
// sequence numbers instead of consulting the tree's live settled set. Nodes popped after p
// satisfy Lemma 4's d(p,q) <= d(t,q) and keep their counter bumps, which
// a pending parent among them reads when it is refined in turn.
func (e *Engine) markTreeSettled(v int32) int32 {
	e.seq++
	e.sseq[v] = e.seq
	e.sstamp[v] = e.epoch
	return e.seq
}

// treeSettledBefore reports whether v was popped from the SDS-tree at or
// before pop sequence number seq of the current query.
func (e *Engine) treeSettledBefore(v int32, seq int32) bool {
	return e.sstamp[v] == e.epoch && e.sseq[v] <= seq
}

// descBound converts a certified lower bound on Rank(v, q) into one valid
// for every SDS-tree descendant of v (generalized Lemma 1).
//
// In monochromatic graphs the bound transfers unchanged. In bichromatic
// mode, when v itself is NOT in the counted class, the transfer loses
// exactly one: a descendant w can be a counted member of v's
// strictly-closer set while v contributes nothing to w's (the set
// S_v \ {w} injects into S_w, but v itself does not), so
// Rank(w) >= Rank(v) - 1 is all Lemma 1 guarantees. The loss applies once
// per bound origin — not per hop — because S_v \ {w} injects into S_w for
// a descendant at any depth; recorded descendant bounds therefore pass
// through intermediate nodes unchanged (see setDescBound/passThrough).
// The paper does not discuss this case; applying the unadjusted bound can
// wrongly prune true results (caught by the randomized bichromatic oracle
// test), while re-applying it per hop destroys pruning on long
// candidate-class chains such as road networks.
func (e *Engine) descBound(v, bound int32) int32 {
	if e.opts.Counted == nil || e.opts.Counted[v] {
		return bound
	}
	if bound <= 1 {
		return 0
	}
	return bound - 1
}

// setDescBound records a certified lower bound on the rank of every
// SDS-tree descendant of v, consulted by its children at dequeue time.
func (e *Engine) setDescBound(v, bound int32) {
	e.nrank[v] = bound
	e.nstamp[v] = e.epoch
}

// parentBound returns the certified lower bound that v's SDS-tree parent
// imposes on Rank(v, q): the parent's recorded descendant bound (0 when
// the parent is the query node itself).
func (e *Engine) parentBound(v int32) int32 {
	p := e.tree.Parent(v)
	if p < 0 || p == e.q {
		return 0
	}
	if e.nstamp[p] != e.epoch {
		return 0
	}
	return e.nrank[p]
}

func (e *Engine) lcountOf(v int32) int32 {
	if e.lstamp[v] != e.epoch {
		return 0
	}
	return e.lcount[v]
}

func (e *Engine) bumpLcount(v int32) {
	if e.lstamp[v] != e.epoch {
		e.lstamp[v] = e.epoch
		e.lcount[v] = 1
		return
	}
	e.lcount[v]++
}

// offer adds an exact (node, rank) pair to the result heap, at most once
// per node per query (the indexed engine can discover a node's rank both
// from the seeded dictionary and from the traversal).
func (e *Engine) offer(node, r int32) bool {
	if e.ostamp[node] == e.epoch {
		return false
	}
	e.ostamp[node] = e.epoch
	return e.heap.offer(node, r)
}

// finish assembles the Result. In batch mode the Result and its entries
// come from the arena's chunked slabs — one allocation per chunk instead
// of two per query — because results escape to the caller and must not
// alias engine scratch.
func (e *Engine) finish() *Result {
	if a := e.arena; a != nil {
		var entries []rank.Entry // nil when empty, like sorted()
		if n := e.heap.len(); n > 0 {
			entries = e.heap.sortedInto(a.entryBuf(n))
		}
		res := a.newResult()
		*res = Result{Query: e.q, K: e.k, Entries: entries, MaxRank: e.maxRank, Stats: e.stats, Trace: e.traceLog}
		return res
	}
	return &Result{Query: e.q, K: e.k, Entries: e.heap.sorted(), MaxRank: e.maxRank, Stats: e.stats, Trace: e.traceLog}
}

// refineAndSettle runs the shared refine/offer/expand tail of the three
// SDS-tree engines for a dequeued candidate; seq is the candidate's pop
// sequence number (markTreeSettled).
func (e *Engine) refineAndSettle(v int32, d float64, seq int32) {
	bound, exact := e.refine(v, d, seq)
	e.settleRefined(v, d, bound, exact)
}

// settleRefined applies the result-heap, descendant-bound, and expansion
// decisions for a refined candidate. Subtree pruning uses the
// descendant-transferred bound (see descBound), not v's own.
func (e *Engine) settleRefined(v int32, d float64, bound int32, exact bool) {
	db := e.descBound(v, bound)
	e.setDescBound(v, db)
	if exact && bound <= e.heap.kRank() {
		e.offer(v, bound)
	}
	// Skipping expansion is sound only once descendants provably cannot
	// enter the canonical result: they rank at least descBound(v, bound),
	// so the subtree is cut exactly when that bound strictly exceeds
	// kRank. The comparison is tie-inclusive (db <= kRank expands)
	// because a descendant tying the k-th rank can still tie-break in by
	// node id — the canonical-result invariant the cluster merge needs.
	// In monochromatic graphs db == bound, matching Algorithm 1.
	expand := db <= e.heap.kRank()
	if expand {
		e.tree.Expand(v, d)
	}
	if e.tracing {
		action := TraceRefined
		if !exact {
			action = TraceRefineAborted
		}
		e.trace(v, d, action, bound, expand)
	}
}

// refine computes Rank(p, q) by a serial partial Dijkstra from p and
// applies its side effects (see refiner.run for the search itself and
// applyRefineLog for the effects). dpq is d(p, q) when known, +Inf
// otherwise; seq is p's pop sequence number (0 outside a tree traversal).
// Returns the exact rank with exact=true, or a certified lower bound with
// exact=false (kRank abort), or rank.Unreachable when p cannot reach q.
func (e *Engine) refine(p int32, dpq float64, seq int32) (bound int32, exact bool) {
	e.stats.Refinements++
	kRank := e.heap.kRank()
	if a := e.arena; a != nil {
		// Batch mode: try to resolve this refinement from a settle log a
		// previous query in the batch stored for p. A successful replay
		// yields the decision triple and log prefix a fresh serial run
		// would have produced byte-for-byte (see batchexec.go), so the
		// applied side effects are identical; only RefineSettled differs
		// (a replay settles nothing: the effort counters describe work
		// actually performed).
		cut := refineCutoff(dpq, e.opts.DisableDistanceCutoff)
		if out, log, ok := a.replay(p, e.q, dpq, cut, kRank); ok {
			a.shared++
			e.stats.SharedTraversals++
			if out.aborted {
				e.stats.RefineAborted++
			}
			e.applyRefineLog(p, log, out.bound, out.exact, out.stopLevel, seq)
			return out.bound, out.exact
		}
	}
	if a := e.arena; a != nil && a.hot(p) {
		// Hot candidate: the batch keeps missing p's stored coverage, so
		// settle its whole component once. The complete log answers this
		// refinement (scanSettleLog with this query's stop rules — the
		// exact decision a bounded run would reach) and, once stored,
		// every later refinement of p in the batch.
		var out refineResult
		out, e.scratch = e.rf.runExhaustive(p, e.scratch[:0])
		e.stats.RefineSettled += out.settled
		if out.stopped {
			return 0, false
		}
		a.store(p, math.Inf(1), true, e.scratch)
		cut := refineCutoff(dpq, e.opts.DisableDistanceCutoff)
		res, log, _ := scanSettleLog(e.scratch, e.q, cut, kRank, true, math.Inf(1))
		if res.aborted {
			e.stats.RefineAborted++
		}
		e.applyRefineLog(p, log, res.bound, res.exact, res.stopLevel, seq)
		return res.bound, res.exact
	}
	var out refineResult
	out, e.scratch = e.rf.run(p, dpq, kRank, e.scratch[:0])
	e.stats.RefineSettled += out.settled
	if out.stopped {
		// The query's context was canceled mid-refinement: the truncated
		// log must not feed the Lemma-4 counters or the index (its stop
		// point is meaningless), so apply nothing. Returning the trivial
		// lower bound keeps any state the caller still touches sound; the
		// traversal loop notices the flag and abandons the query.
		return 0, false
	}
	if out.aborted {
		e.stats.RefineAborted++
	}
	if a := e.arena; a != nil {
		a.spend(p, out.settled)
		exhausted := !out.exact && !out.aborted
		a.store(p, refineCutoff(dpq, e.opts.DisableDistanceCutoff), exhausted, e.scratch)
	}
	e.applyRefineLog(p, e.scratch, out.bound, out.exact, out.stopLevel, seq)
	return out.bound, out.exact
}

// applyRefineLog applies the side effects of a refinement of p, gated by
// the engine's per-query switches:
//
//   - useLc: every settled counted node proven strictly closer to p than q
//     gets its Lemma-4 visit counter bumped;
//   - indexing: every settled counted node's exact rank from p feeds the
//     Reverse Rank Dictionary, and p's Check Dictionary bound is raised.
//
// seq is p's pop sequence number: nodes popped from the SDS-tree at or
// before it never read their counter again — and for them the lemma's
// d(p,q) <= d(t,q) precondition no longer holds — so they are skipped
// (Lemma 3/4).
func (e *Engine) applyRefineLog(p int32, log []settleRec, bound int32, exact bool, stopLevel float64, seq int32) {
	if !e.useLc && !e.indexing {
		return
	}
	for _, rec := range log {
		if rec.node == e.q {
			continue
		}
		if e.useLc && rec.dist < stopLevel && !e.treeSettledBefore(rec.node, seq) {
			e.bumpLcount(rec.node)
		}
		if e.indexing {
			e.idx.Offer(rec.node, p, rec.rank)
		}
	}
	if e.indexing {
		if exact {
			e.idx.Offer(e.q, p, bound)
		}
		// Any node not settled by this search ranks at least as high
		// as the last settled one (see ridx package docs). The raise
		// must come after the Offers above: on a shared concurrent
		// index, a reader that sees this bound must also see the
		// witness entries it exempts (readers load Check first).
		e.idx.RaiseCheck(p, bound)
	}
}
