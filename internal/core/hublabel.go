package core

// hubLabel is the Dynamic Bounded SDS-tree augmented with rank lower
// bounds read off a precomputed pruned 2-hop hub labeling (Options.Labels;
// the ReHub direction of PAPERS.md): before paying for a candidate's rank
// refinement, the engine counts counted nodes the labeling proves strictly
// closer to the candidate than the query node. When that count alone
// reaches kRank the candidate is disqualified — and, because the count is
// a certified lower bound, its SDS-subtree is cut by exactly the same
// tie-inclusive rule as every other Theorem-2 prune — without settling a
// single Dijkstra node. Only candidates the labeling cannot disqualify
// fall back to the CSR rank refinement, so every rank that reaches the
// result heap comes from the same refinement code path as Dynamic's and
// the canonical minimum-k-by-(rank, node) contract — shard-merge
// byte-identity, rank-floor certification, response-cache reuse — carries
// over unchanged.
func (e *Engine) hubLabel(q int32, k int) *Result {
	e.begin(q, k, HubLabel)
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
		if e.pend != nil && e.masked(v, d, boundLabels) {
			continue
		}
		lb := e.lowerBound(v, 0)
		kRank := e.heap.kRank()
		if lb > kRank {
			e.skipCandidate(v, d, lb) // the plain Theorem-2 prune (as Dynamic)
			continue
		}
		if kRank != kRankInf {
			// The cheap Theorem-2 components did not disqualify v; scan the
			// labeling before conceding a refinement. Skipped while the
			// heap is short of k entries (kRank == kRankInf): nothing can
			// be pruned yet, and an unbounded count would walk entire
			// inverted lists.
			if lbl := e.labelBound(v, d, kRank); lbl > kRank {
				e.stats.LabelPruned++
				e.skipCandidate(v, d, lbl)
				continue
			}
		}
		e.stats.LabelFallbacks++
		e.refineAndSettle(v, d, seq)
	}
	return e.finish()
}

// labelBound returns a certified lower bound on Rank(p, q) from the hub
// labeling: 1 + the number of distinct counted nodes t != p with a
// label-certified d(p, t) < d(p, q). Label distances are real path
// lengths, hence upper bounds on true distances, so every node counted is
// genuinely strictly closer than q and the result is sound — it can only
// undercount. Counting stops at kRank (the caller prunes on lb > kRank,
// so kRank + 1 is as useful as the exact count and bounds the scan).
//
// dpq is v's SDS-tree pop distance d(p, q). The comparison threshold is
// deflated by the same relative epsilon sssp.Cutoff inflates by: a label
// path and the refiner's reverse-summed path can disagree by an ulp, and
// a node counted here that the refiner would rank as tied (not strictly
// closer) would break byte-identity with Dynamic. Deflation only forfeits
// genuine strictly-closer nodes within a hair of d(p, q) — weakening the
// bound, never unsounding it.
// The scan is two-tier. Tier 1 never touches individual entries: one
// hub's qualifying prefix is already a set of DISTINCT nodes, so its
// length minus one (p itself may sit in it) is a sound count all by
// itself, and the max over p's hubs costs only a binary search per hub.
// In the monochromatic case it alone certifies the vast majority of
// prunes. Only when that max falls short — and every node is potentially
// counted — does tier 2 walk the prefixes to count their union, deduping
// across hubs with an epoch-stamped array and stopping as soon as the
// count reaches kRank. Bichromatic queries skip tier 1 (a prefix length
// counts nodes outside the counted class) and go straight to tier 2.
func (e *Engine) labelBound(p int32, dpq float64, kRank int32) int32 {
	thr := dpq - dpq*1e-9
	ords, dists := e.labels.OutLabel(p)
	invOff, invNode, invDist := e.labels.Inv()
	if e.opts.Counted == nil {
		// The prune needs count >= kRank, and one hub's qualifying prefix
		// needs length kRank+1 to certify that (its entries are distinct
		// nodes; minus one because p itself may sit in it). The in-list is
		// distance-sorted, so that reduces to ONE probe per hub: does the
		// entry at index kRank still clear the threshold?
		for i, j := range ords {
			dph := dists[i]
			if dph >= thr {
				break // the label is distance-sorted: every later hub is farther
			}
			lo, hi := invOff[j], invOff[j+1]
			if hi-lo > kRank && dph+invDist[lo+kRank] < thr {
				return kRank + 1
			}
		}
	}

	if e.lbseen == nil {
		e.lbseen = make([]uint32, e.g.N())
	}
	e.lbepoch++
	if e.lbepoch == 0 {
		clear(e.lbseen)
		e.lbepoch = 1
	}
	count := int32(0)
	for i, j := range ords {
		dph := dists[i]
		if dph >= thr {
			break
		}
		lo, hi := invOff[j], invOff[j+1]
		if hi == lo || dph+invDist[lo] >= thr {
			continue
		}
		for x := lo; x < hi; x++ {
			if dph+invDist[x] >= thr {
				break
			}
			e.stats.LabelScanned++
			t := invNode[x]
			if t == p || e.lbseen[t] == e.lbepoch || !e.counted(t) {
				continue
			}
			e.lbseen[t] = e.lbepoch
			count++
			if count >= kRank {
				return kRank + 1
			}
		}
	}
	return count + 1
}
