package core

import "math"

// naive is the Section 2 baseline: evaluate Rank(p, q) for every candidate
// node p by a partial Dijkstra from p, keeping the best k in a heap. The
// only optimization retained from the paper's description is the running
// kRank bound inside each refinement ("the top-k of these ranks are
// maintained in a heap").
func (e *Engine) naive(q int32, k int) *Result {
	e.begin(q, k, Naive)
	n := int32(e.g.N())
	for p := int32(0); p < n; p++ {
		if e.stopped() {
			break
		}
		if p == q || !e.candidate(p) {
			continue
		}
		bound, exact := e.refine(p, math.Inf(1), 0)
		if exact && bound <= e.heap.kRank() {
			e.offer(p, bound)
		}
	}
	return e.finish()
}

// static is the basic SDS-tree framework (Section 3, Algorithm 1): traverse
// the transpose graph from q in distance order; rank-refine every dequeued
// candidate immediately; expand a node's children only while it can still
// qualify (Theorem 1: descendants rank no better than their ancestors).
func (e *Engine) static(q int32, k int) *Result {
	e.begin(q, k, Static)
	e.tree.ResetReverse(q)
	for {
		v, d, ok := e.tree.Pop()
		if !ok || e.stopped() {
			break
		}
		seq := e.markTreeSettled(v)
		e.stats.TreeSettled++
		if v == q {
			e.tree.Expand(v, d)
			continue
		}
		if !e.candidate(v) {
			e.passThrough(v, d, boundInherit)
			continue
		}
		e.refineAndSettle(v, d, seq)
	}
	return e.finish()
}

// dynamic is the Dynamic Bounded SDS-tree (Section 4): the candidacy
// decision is delayed to dequeue time and a Theorem-2 lower bound —
// max(height, parent rank, visit count) — skips the refinement entirely
// when it already exceeds kRank. The comparison is strict so that
// candidates tying the k-th rank are still refined and tie-break through
// the result heap: every engine then returns the canonical minimum k
// entries by (rank, node id), independent of traversal and pruning order
// — the invariant the cluster coordinator's shard merge relies on.
func (e *Engine) dynamic(q int32, k int) *Result {
	e.begin(q, k, Dynamic)
	e.tree.ResetReverse(q)
	for {
		v, d, ok := e.tree.Pop()
		if !ok || e.stopped() {
			break
		}
		seq := e.markTreeSettled(v)
		e.stats.TreeSettled++
		if v == q {
			e.tree.Expand(v, d)
			continue
		}
		if e.pend != nil && e.masked(v, d, boundRefine) {
			continue
		}
		lb := e.lowerBound(v, 0)
		if lb > e.heap.kRank() {
			e.skipCandidate(v, d, lb)
			continue // prune the refinement (Theorem 2)
		}
		e.refineAndSettle(v, d, seq)
	}
	return e.finish()
}

// skipCandidate records a candidate disqualified by its lower bound. Its
// subtree is usually pruned too (Theorem 1), except in bichromatic mode
// where an uncounted node's descendants may rank one better than the node
// itself (see descBound) and must still be explored. The recorded
// descendant bound keeps the parent's (which passes through v unweakened)
// when that is stronger than v's own adjusted bound; under a candidate
// mask the parent's bound may come from refineParent rather than from a
// candidate decision. Expansion is tie-inclusive (db <= kRank): a
// descendant tying the k-th rank could still tie-break into the canonical
// result, so only a strictly worse certified bound may cut the subtree.
func (e *Engine) skipCandidate(v int32, d float64, lb int32) {
	db := e.descBound(v, lb)
	if pb := e.parentBound(v); pb > db {
		db = pb
	}
	e.setDescBound(v, db)
	e.stats.PrunedByBound++
	expand := db <= e.heap.kRank()
	if expand {
		e.tree.Expand(v, d)
	}
	e.trace(v, d, TracePrunedByBound, lb, expand)
}

// indexed is the Dynamic Bounded SDS-tree with the Check / Reverse-Rank
// dictionaries (Section 5, Algorithms 3-4). The result heap is seeded from
// the Reverse Rank Dictionary of q; candidates whose exact rank the
// dictionary already knows skip refinement, and the Check Dictionary joins
// the Theorem-2 lower bound. Refinements feed their discoveries back into
// the index, so subsequent queries get faster (Table 14).
func (e *Engine) indexed(q int32, k int) *Result {
	e.begin(q, k, Indexed)
	e.seedFromIndex()
	e.tree.ResetReverse(q)
	for {
		v, d, ok := e.tree.Pop()
		if !ok || e.stopped() {
			break
		}
		seq := e.markTreeSettled(v)
		e.stats.TreeSettled++
		if v == q {
			e.tree.Expand(v, d)
			continue
		}
		if e.pend != nil && e.masked(v, d, boundRefine) {
			continue
		}
		// Read Check BEFORE LookupRank. Check(v) only bounds Rank(v, q)
		// when q is not recorded in Reverse(q) with source v, and index
		// writers publish the witness entry before raising the bound
		// (Offer, then RaiseCheck — see applyRefineLog). Reading in the
		// matching order guarantees that a bound covering the (v, q)
		// exception is always read together with its visible witness; the
		// reverse order could, on a shared concurrent index, observe a
		// freshly raised bound while missing the just-offered exact rank
		// and wrongly prune a true result.
		check := e.idx.Check(v)
		if r, known := e.idx.LookupRank(q, v); known {
			e.indexHit(v, d, r)
			continue
		}
		lb := e.lowerBound(v, check)
		if lb > e.heap.kRank() {
			e.skipCandidate(v, d, lb)
			continue
		}
		e.refineAndSettle(v, d, seq)
	}
	return e.finish()
}

// seedFromIndex primes the result heap from the Reverse Rank Dictionary of
// the query node before traversal starts (Algorithm 3, line 1).
func (e *Engine) seedFromIndex() {
	for _, en := range e.idx.Reverse(e.q) {
		if e.candidate(en.Node) && e.offer(en.Node, en.Rank) {
			e.stats.SeededFromIndex++
			e.trace(en.Node, 0, TraceSeeded, en.Rank, false)
		}
	}
}

// indexHit handles a dequeued candidate whose exact rank the Reverse Rank
// Dictionary already knows, skipping its refinement. Like settleRefined,
// expansion is decided on the tie-inclusive descendant bound so the
// canonical result never loses a boundary tie to the index shortcut.
func (e *Engine) indexHit(v int32, d float64, r int32) {
	e.stats.IndexHits++
	db := e.descBound(v, r)
	e.setDescBound(v, db)
	if r <= e.heap.kRank() {
		e.offer(v, r)
	}
	expand := db <= e.heap.kRank()
	if expand {
		e.tree.Expand(v, d)
	}
	e.trace(v, d, TraceIndexHit, r, expand)
}

// boundMode selects how a query bounds an out-of-class SDS-tree node of
// its own (classBound).
type boundMode uint8

const (
	// boundInherit keeps the parent's bound (Static, whose framework
	// computes no lower bounds).
	boundInherit boundMode = iota
	// boundRefine runs a bound-only refinement (Dynamic, Indexed).
	boundRefine
	// boundLabels reads the bound off the hub labeling (HubLabel).
	boundLabels
)

// passThrough handles a dequeued node outside the candidate class V1
// (bichromatic queries and shard masks): it cannot be a result, but
// shortest paths of candidates run through it. Its descendants are also
// descendants of its parent, so the parent's descendant bound passes
// through unweakened (no per-hop loss), and the subtree is pruned once
// that bound already disqualifies everything below.
//
// Under boundRefine and boundLabels the node then gets its own Lemma-1
// bound, so a masked query keeps the parent-to-child chain instead of
// handing children the grandparent's bound. It is bounded here, when it
// is dequeued, once kRank is bounded and the node would reach a node the
// traversal has not reached yet: a bound above kRank then cuts the
// subtree before a single child is pushed. Otherwise the node is expanded
// and left pending, and refineParent bounds it when its first SDS-tree
// child is dequeued. That covers a node dequeued while the result heap is
// still short of k entries (kRank == kRankInf), which cannot be bounded
// usefully yet, and a node whose expansion only shortens paths to nodes
// already queued: those nodes often find a shorter path through another
// node before they are dequeued, and bounding such parents as well cost
// 21% more refinements at k=100 on four shards of a 3,000-node dblp-like
// graph, for no fewer tree settles.
func (e *Engine) passThrough(v int32, d float64, mode boundMode) {
	pb := e.parentBound(v)
	e.setDescBound(v, pb)
	kRank := e.heap.kRank()
	expand := pb <= kRank
	if expand && mode != boundInherit {
		if kRank == kRankInf || !e.tree.Reaches(v) {
			e.pend[v] = e.epoch
		} else {
			e.classBound(v, d, kRank, mode)
			expand = e.nrank[v] <= kRank
		}
	}
	if expand {
		e.tree.Expand(v, d)
	}
	e.trace(v, d, TracePassThrough, pb, expand)
}

// masked runs the class logic of a masked query (e.pend != nil) for a
// dequeued node v: it settles v's pending parent first (refineParent),
// then passes v through when v is outside the candidate class. It reports
// whether v was consumed. Unmasked queries skip it on the e.pend check,
// which stands in for candidate()'s own nil check.
func (e *Engine) masked(v int32, d float64, mode boundMode) bool {
	e.refineParent(v, mode)
	if e.opts.Candidates[v] {
		return false
	}
	e.passThrough(v, d, mode)
	return true
}

// refineParent bounds v's SDS-tree parent when the parent is an
// out-of-class node that passThrough left pending (see there). The first
// child dequeued once kRank is bounded pays for it; while the result heap
// holds fewer than k entries the parent stays pending and a later child
// tries again.
func (e *Engine) refineParent(v int32, mode boundMode) {
	p := e.tree.Parent(v)
	if p < 0 || e.pend[p] != e.epoch {
		return
	}
	kRank := e.heap.kRank()
	if kRank == kRankInf {
		return
	}
	e.pend[p] = 0
	d, _ := e.tree.Dist(p)
	e.classBound(p, d, kRank, mode)
}

// classBound gives an out-of-class node p its own Lemma-1 descendant
// bound against a bounded kRank; passThrough and refineParent share it.
// The usual Theorem-2 skip comes first: a lower bound above kRank is
// recorded without a refinement. Otherwise Dynamic and Indexed run a
// bound-only refinement. The node is never offered to the result heap,
// and it never feeds the index: a Reverse Rank Dictionary slot held by a
// non-candidate source would break the Check Dictionary's eviction
// argument (see ridx.BuildParams.Candidates). HubLabel takes the
// hub-label bound instead and never refines: its label scans already
// prune most in-class children cheaply, and a Dijkstra per out-of-class
// node cost more than it saved at k=100.
func (e *Engine) classBound(p int32, d float64, kRank int32, mode boundMode) {
	bound := e.lowerBoundAt(p, 0, false)
	switch {
	case bound > kRank:
	case mode == boundLabels:
		bound = max(bound, e.labelBound(p, d, kRank))
	default:
		indexing := e.indexing
		e.indexing = false
		bound, _ = e.refine(p, d, e.sseq[p])
		e.indexing = indexing
	}
	if db := e.descBound(p, bound); db > e.nrank[p] {
		e.setDescBound(p, db)
	}
	e.trace(p, d, TraceClassBound, bound, e.nrank[p] <= kRank)
}

// lowerBound evaluates the Theorem-2 lower bound of a candidate about to be
// refined, extended with the Check Dictionary bound for the indexed engine,
// and attributes the win for the Table 11 analysis. Tie attribution order:
// height, count, parent (check-dictionary wins are folded into the final
// max without attribution, mirroring the paper's three-component table).
func (e *Engine) lowerBound(v, check int32) int32 {
	return e.lowerBoundAt(v, check, true)
}

// lowerBoundAt is lowerBound with the Table-11 win attribution optional.
// classBound bounds out-of-class nodes with attribute=false: they are
// not candidates, so their bounds must not count toward the Table 11
// wins, which describe candidate decisions.
func (e *Engine) lowerBoundAt(v, check int32, attribute bool) int32 {
	var height, count, parent int32
	if e.bounds&BoundHeight != 0 {
		height = e.tree.Depth(v)
	}
	if e.bounds&BoundCount != 0 {
		count = e.lcountOf(v)
	}
	if e.bounds&BoundParent != 0 {
		parent = e.parentBound(v)
	}
	if attribute {
		switch {
		case height >= count && height >= parent:
			e.stats.HeightWins++
		case count >= parent:
			e.stats.CountWins++
		default:
			e.stats.ParentWins++
		}
	}
	lb := height
	if count > lb {
		lb = count
	}
	if parent > lb {
		lb = parent
	}
	if check > lb {
		lb = check
	}
	return lb
}
