// Package core implements the reverse k-ranks query engines of the paper:
// the brute-force baseline (Section 2), the static SDS-tree filter-and-
// refine framework (Section 3), the Dynamic Bounded SDS-tree (Section 4),
// and the index-assisted engine (Section 5). All engines operate on the
// same graph substrate and produce byte-identical canonical results — the
// minimum k entries by (rank, node id) — differing only in how much work
// they avoid.
package core

import (
	"fmt"

	"rkranks/internal/graph"
	"rkranks/internal/hub"
)

// Algorithm selects a query engine.
type Algorithm int

const (
	// Naive evaluates Rank(p, q) for every node p (Section 2 baseline).
	Naive Algorithm = iota
	// Static is the basic SDS-tree filter-and-refine framework
	// (Section 3, Algorithm 1).
	Static
	// Dynamic is the Dynamic Bounded SDS-tree (Section 4, Theorem 2).
	Dynamic
	// Indexed is Dynamic plus the Check / Reverse-Rank dictionaries
	// (Section 5, Algorithms 3-4). Requires Engine.SetIndex.
	Indexed
	// HubLabel is Dynamic plus rank lower bounds derived from a precomputed
	// pruned 2-hop hub labeling (the ReHub direction): candidates whose
	// label scan already certifies rank > kRank are pruned without any
	// Dijkstra work, and only uncertified candidates fall back to CSR rank
	// refinement. Requires Options.Labels.
	HubLabel
)

// ParseAlgorithm maps a user-facing name to an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "naive":
		return Naive, nil
	case "static":
		return Static, nil
	case "dynamic":
		return Dynamic, nil
	case "indexed":
		return Indexed, nil
	case "hublabel":
		return HubLabel, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want naive|static|dynamic|indexed|hublabel)", name)
}

// String returns the canonical algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Naive:
		return "naive"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Indexed:
		return "indexed"
	case HubLabel:
		return "hublabel"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Bounds is a bitmask of the Theorem-2 lower-bound components used by the
// dynamic engines. The parent-rank bound (Lemma 1) is the backbone of the
// method; height (Lemma 2) and visit-count (Lemma 4) are optional
// tighteners, ablated in Tables 12-13 of the paper.
type Bounds uint8

const (
	// BoundParent uses Rank(parent(p), q) as a lower bound (Lemma 1).
	BoundParent Bounds = 1 << iota
	// BoundHeight uses p's depth in the SDS-tree (Lemma 2).
	BoundHeight
	// BoundCount uses the number of times p was settled during earlier
	// rank refinements (Lemma 4; undirected monochromatic graphs only).
	BoundCount

	// BoundsAll enables every component (the paper's Dynamic-Three).
	BoundsAll = BoundParent | BoundHeight | BoundCount
)

// ParseBounds maps a comma-free compact spec ("parent", "count", "height",
// "three") — the paper's ablation names — to a Bounds mask.
func ParseBounds(name string) (Bounds, error) {
	switch name {
	case "parent":
		return BoundParent, nil
	case "count":
		return BoundParent | BoundCount, nil
	case "height":
		return BoundParent | BoundHeight, nil
	case "three", "all":
		return BoundsAll, nil
	}
	return 0, fmt.Errorf("core: unknown bound strategy %q (want parent|count|height|three)", name)
}

// String renders the paper's ablation name for the mask.
func (b Bounds) String() string {
	switch b {
	case BoundParent:
		return "parent"
	case BoundParent | BoundCount:
		return "count"
	case BoundParent | BoundHeight:
		return "height"
	case BoundsAll:
		return "three"
	}
	s := ""
	if b&BoundParent != 0 {
		s += "+parent"
	}
	if b&BoundHeight != 0 {
		s += "+height"
	}
	if b&BoundCount != 0 {
		s += "+count"
	}
	if s == "" {
		return "none"
	}
	return s[1:]
}

// Options configures an Engine.
type Options struct {
	// Bounds selects the Theorem-2 components for the dynamic engines.
	// Zero means BoundsAll. Components that are unsound for the graph
	// (count on directed or bichromatic graphs, height on bichromatic
	// graphs) are disabled automatically.
	Bounds Bounds

	// Candidates restricts the result class V1 for bichromatic queries
	// (Definition 4): only nodes with Candidates[v] == true may appear in
	// results. Nil makes every node a candidate (monochromatic).
	Candidates []bool

	// Counted restricts the rank-counting class V2 for bichromatic queries
	// (Definition 3): Rank(s, t) counts only nodes with Counted[v] == true.
	// Nil counts every node.
	Counted []bool

	// DisableDistanceCutoff turns off the refinement frontier bound
	// (Algorithm 2's "push only nodes nearer than d(p, q)"). Results are
	// unchanged; refinements just carry a larger queue. Exists for the
	// ablation benchmark — leave it false in production.
	DisableDistanceCutoff bool

	// Labels attaches a precomputed pruned 2-hop hub labeling
	// (hub.BuildLabels / hub.ReadLabels) and enables the HubLabel engine.
	// The labeling must cover the same graph the engine queries (same node
	// count and direction — NewEngine panics otherwise, mirroring the
	// candidate-slice length checks). Labels are read-only and safely
	// shared by every engine, pool, and shard built from the same Options.
	Labels *hub.Labels
}

func (o *Options) bichromatic() bool { return o.Candidates != nil || o.Counted != nil }

// effectiveBounds disables components whose lemmas do not hold for the
// graph: Lemma 4 (count) requires an undirected monochromatic graph
// (the paper's footnote 1), and Lemma 2 (height) counts every hop on the
// path, which is only a rank bound when every node is counted.
func (o *Options) effectiveBounds(g *graph.Graph) Bounds {
	b := o.Bounds
	if b == 0 {
		b = BoundsAll
	}
	if g.Directed() || o.bichromatic() {
		b &^= BoundCount
	}
	if o.Counted != nil {
		b &^= BoundHeight
	}
	return b
}
