package core

import "fmt"

// TraceAction classifies what the engine did with a dequeued node.
type TraceAction uint8

const (
	// TraceRefined: a rank refinement ran and produced an exact rank.
	TraceRefined TraceAction = iota
	// TraceRefineAborted: the refinement hit the kRank early exit; only a
	// lower bound is known.
	TraceRefineAborted
	// TracePrunedByBound: the Theorem-2 lower bound (plus Check
	// Dictionary, for the indexed engine) disqualified the node without a
	// refinement.
	TracePrunedByBound
	// TraceIndexHit: the Reverse Rank Dictionary knew the exact rank.
	TraceIndexHit
	// TraceSeeded: the node entered the result heap from the dictionary
	// before traversal started (its Dist is unknown and reported as 0).
	TraceSeeded
	// TracePassThrough: a non-candidate node (bichromatic mode) was
	// forwarded with its parent's bound.
	TracePassThrough
	// TraceClassBound: a passed-through node got its own descendant bound
	// (masked engines, see classBound), when it was dequeued or, if kRank
	// was still unbounded then, when its first SDS-tree child was: from a bound-only refinement (Dynamic, Indexed), from
	// the hub labeling (HubLabel), or from the Theorem-2 lower bound alone
	// when that already exceeded kRank. Bound is the value found; Expanded
	// reports whether the node's children may still be explored.
	TraceClassBound
)

// String returns a compact action name.
func (a TraceAction) String() string {
	switch a {
	case TraceRefined:
		return "refined"
	case TraceRefineAborted:
		return "refine-aborted"
	case TracePrunedByBound:
		return "pruned-by-bound"
	case TraceIndexHit:
		return "index-hit"
	case TraceSeeded:
		return "seeded"
	case TracePassThrough:
		return "pass-through"
	case TraceClassBound:
		return "class-bound"
	}
	return fmt.Sprintf("TraceAction(%d)", uint8(a))
}

// TraceEvent records one engine decision; a query's event sequence
// explains exactly why each node was or was not refined.
type TraceEvent struct {
	// Node is the dequeued node.
	Node int32
	// Dist is d(Node, q) at dequeue time (0 for seeded entries).
	Dist float64
	// Action says what happened.
	Action TraceAction
	// Bound is the rank value the decision used: the exact rank for
	// Refined/IndexHit/Seeded, the certified lower bound otherwise.
	Bound int32
	// Expanded reports whether the node's subtree was explored further.
	Expanded bool
}

// String renders one event.
func (ev TraceEvent) String() string {
	return fmt.Sprintf("%s node=%d d=%.4g bound=%d expanded=%v",
		ev.Action, ev.Node, ev.Dist, ev.Bound, ev.Expanded)
}

// SetTracing enables or disables decision tracing. When enabled, each
// Result carries the per-node decision log in Result.Trace. Tracing
// allocates; leave it off in production loops.
func (e *Engine) SetTracing(on bool) { e.tracing = on }

func (e *Engine) trace(node int32, dist float64, a TraceAction, bound int32, expanded bool) {
	if !e.tracing {
		return
	}
	e.traceLog = append(e.traceLog, TraceEvent{
		Node: node, Dist: dist, Action: a, Bound: bound, Expanded: expanded,
	})
}
