package core

import (
	"strings"
	"testing"

	"rkranks/internal/ridx"
	tg "rkranks/internal/testgraphs"
)

// TestTraceWorkedExample: the dynamic trace of Alice's reverse 2-ranks
// query must read exactly like the paper's Section-4 walkthrough — Bob,
// Eric, Caroline refined; Frank, Sid, George pruned by bounds.
func TestTraceWorkedExample(t *testing.T) {
	g := tg.Toy()
	e := NewEngine(g, Options{})
	e.SetTracing(true)
	res, err := e.Query(Dynamic, tg.Alice, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 6 {
		t.Fatalf("trace has %d events: %v", len(res.Trace), res.Trace)
	}
	type want struct {
		node   int32
		action TraceAction
	}
	wants := []want{
		{tg.Bob, TraceRefined},
		{tg.Eric, TraceRefined},
		{tg.Caroline, TraceRefined},
		{tg.Frank, TracePrunedByBound},
		{tg.Sid, TracePrunedByBound},
		{tg.George, TracePrunedByBound},
	}
	for i, w := range wants {
		ev := res.Trace[i]
		if ev.Node != w.node || ev.Action != w.action {
			t.Errorf("event %d = %v, want %s %s", i, ev, tg.ToyNames[w.node], w.action)
		}
	}
	// Eric was refined (rank 6 > kRank 4 would be known only after
	// Caroline); his subtree still expanded because rank 6 was within the
	// then-current kRank (heap not yet full at refinement time).
	if !res.Trace[0].Expanded || !res.Trace[1].Expanded {
		t.Error("early refinements should expand")
	}
	if res.Trace[3].Expanded {
		t.Error("pruned node expanded")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	g := tg.Toy()
	e := NewEngine(g, Options{})
	res, err := e.Query(Dynamic, tg.Alice, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("trace recorded without SetTracing")
	}
	// Toggling off again stops recording.
	e.SetTracing(true)
	if res, _ = e.Query(Dynamic, tg.Alice, 2); len(res.Trace) == 0 {
		t.Error("enabled trace empty")
	}
	e.SetTracing(false)
	if res, _ = e.Query(Dynamic, tg.Alice, 2); res.Trace != nil {
		t.Error("disabled trace still recorded")
	}
}

func TestTraceIndexedActions(t *testing.T) {
	g := tg.Toy()
	e := NewEngine(g, Options{})
	ix, err := ridx.Build(g, ridx.BuildParams{
		Hubs: []int32{tg.Alice, tg.Bob, tg.Caroline, tg.Sid, tg.Eric, tg.Frank, tg.George},
		M:    6, K: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetIndex(ix)
	e.SetTracing(true)
	res, err := e.Query(Indexed, tg.Alice, 2)
	if err != nil {
		t.Fatal(err)
	}
	var joined strings.Builder
	for _, ev := range res.Trace {
		joined.WriteString(ev.String())
		joined.WriteByte('\n')
	}
	s := joined.String()
	if !strings.Contains(s, "seeded") && !strings.Contains(s, "index-hit") {
		t.Errorf("indexed trace shows no index activity:\n%s", s)
	}
}

func TestTraceActionStrings(t *testing.T) {
	names := map[TraceAction]string{
		TraceRefined:       "refined",
		TraceRefineAborted: "refine-aborted",
		TracePrunedByBound: "pruned-by-bound",
		TraceIndexHit:      "index-hit",
		TraceSeeded:        "seeded",
		TracePassThrough:   "pass-through",
		TraceClassBound:    "class-bound",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d String = %q, want %q", a, a.String(), want)
		}
	}
	if TraceAction(99).String() == "" {
		t.Error("unknown action empty")
	}
}
