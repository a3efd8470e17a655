package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// These tests assert the paper's qualitative claims hold at the Small
// scale, so a regression that flips an ordering (e.g. dynamic refining
// more than static) fails CI rather than silently producing a wrong table.

func smallRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(Small())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

// TestFigure6Shape: static >= dynamic >= indexed refinements at every k,
// and refinements grow with k for every engine.
func TestFigure6Shape(t *testing.T) {
	r := smallRunner(t)
	tables, err := r.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		var prev [3]float64
		for i, row := range tab.Rows {
			static := cellFloat(t, row[4])
			dynamic := cellFloat(t, row[5])
			indexed := cellFloat(t, row[6])
			if dynamic > static {
				t.Errorf("%s row %s: dynamic refines more than static (%.1f > %.1f)", tab.Title, row[0], dynamic, static)
			}
			if indexed > dynamic {
				t.Errorf("%s row %s: indexed refines more than dynamic (%.1f > %.1f)", tab.Title, row[0], indexed, dynamic)
			}
			if i > 0 {
				if static < prev[0] || dynamic < prev[1] {
					t.Errorf("%s row %s: refinements shrank as k grew", tab.Title, row[0])
				}
			}
			prev = [3]float64{static, dynamic, indexed}
		}
	}
}

// TestNaiveGapShape: the naive baseline refines orders of magnitude more
// than the framework (the paper's 701s-vs-seconds claim, in refinement
// counts).
func TestNaiveGapShape(t *testing.T) {
	r := smallRunner(t)
	tab, err := r.NaiveGap()
	if err != nil {
		t.Fatal(err)
	}
	var naive, static, dynamic float64
	for _, row := range tab.Rows {
		v := cellFloat(t, row[2])
		switch row[0] {
		case "naive":
			naive = v
		case "static":
			static = v
		case "dynamic":
			dynamic = v
		}
	}
	if naive < 10*static {
		t.Errorf("naive (%.0f) not clearly above static (%.0f)", naive, static)
	}
	if static < dynamic {
		t.Errorf("static (%.1f) below dynamic (%.1f)", static, dynamic)
	}
}

// TestHubSweepShape: refinements fall (weakly) as h grows (Tables 6-7).
func TestHubSweepShape(t *testing.T) {
	r := smallRunner(t)
	for _, ds := range []string{"dblp", "epinions"} {
		tab, err := r.HubSweep(ds)
		if err != nil {
			t.Fatal(err)
		}
		var prev float64 = 1e18
		for _, row := range tab.Rows {
			ref := cellFloat(t, row[3])
			if ref > prev+1e-9 {
				t.Errorf("%s: refinements rose from %.2f to %.2f as h grew", ds, prev, ref)
			}
			prev = ref
		}
	}
}

// TestTable11Shape: win percentages sum to ~100 per row, and the parent
// share grows with k (the paper's headline Table-11 trend).
func TestTable11Shape(t *testing.T) {
	r := smallRunner(t)
	tab, err := r.Table11()
	if err != nil {
		t.Fatal(err)
	}
	lastParent := map[string]float64{}
	for _, row := range tab.Rows {
		sum := cellFloat(t, row[2]) + cellFloat(t, row[3]) + cellFloat(t, row[4])
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("row %v: wins sum to %.2f", row, sum)
		}
		ds := row[0]
		parent := cellFloat(t, row[4])
		if prev, ok := lastParent[ds]; ok && parent < prev-25 {
			t.Errorf("%s: parent share collapsed from %.1f to %.1f as k grew", ds, prev, parent)
		}
		lastParent[ds] = parent
	}
}

// TestTable14Shape: refinements fall monotonically as resets get rarer.
func TestTable14Shape(t *testing.T) {
	r := smallRunner(t)
	tab, err := r.Table14()
	if err != nil {
		t.Fatal(err)
	}
	prev := map[string]float64{}
	for _, row := range tab.Rows {
		ds := row[0]
		ref := cellFloat(t, row[3])
		if p, ok := prev[ds]; ok && ref > p+1e-9 {
			t.Errorf("%s: refinements rose from %.2f to %.2f with fewer resets", ds, p, ref)
		}
		prev[ds] = ref
	}
}

// TestBoundAblationShape: dynamic-three never refines more than
// dynamic-parent at the same k (extra bounds only prune more).
func TestBoundAblationShape(t *testing.T) {
	r := smallRunner(t)
	for _, maxDeg := range []bool{true, false} {
		tab, err := r.BoundAblation(maxDeg)
		if err != nil {
			t.Fatal(err)
		}
		refs := map[string][]float64{}
		for _, row := range tab.Rows {
			if row[1] != "rank refinement" {
				continue
			}
			for _, c := range row[2:] {
				refs[row[0]] = append(refs[row[0]], cellFloat(t, c))
			}
		}
		parent, three := refs["dynamic-parent"], refs["dynamic-three"]
		if len(parent) == 0 || len(parent) != len(three) {
			t.Fatalf("missing rows: %v", refs)
		}
		for i := range parent {
			if three[i] > parent[i]+1e-9 {
				t.Errorf("maxDeg=%v k-index %d: three (%.2f) refines more than parent (%.2f)",
					maxDeg, i, three[i], parent[i])
			}
		}
	}
}

// TestFigure5Shape: the case study returns one row per competing store,
// each with a nonempty fixed-size reverse k-ranks answer.
func TestFigure5Shape(t *testing.T) {
	r := smallRunner(t)
	tab, err := r.CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("want 2 store rows, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[3] == "[]" || row[4] == "[]" {
			t.Errorf("store %s has an empty reverse k-ranks answer: %v", row[0], row)
		}
		if strings.Count(row[4], " ") != 2 {
			t.Errorf("store %s reverse 3-ranks is not size 3: %q", row[0], row[4])
		}
	}
}

// TestExperimentsDeterminism: the same config produces identical tables
// for timing-free columns (here: Table 3, which has no timing at all).
func TestExperimentsDeterminism(t *testing.T) {
	a, err := smallRunner(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallRunner(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("Table 3 not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestLatencyShape: the latency table has one row per dataset (dblp,
// road) and every latency and allocation cell parses as a non-negative
// number. No values are asserted — wall clock depends on the host.
func TestLatencyShape(t *testing.T) {
	cfg := Small()
	cfg.Queries = 4
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := r.Latency()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "dblp" || tab.Rows[1][0] != "road" {
		t.Fatalf("rows = %v, want one dblp and one road row", tab.Rows)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Headers) {
			t.Fatalf("row %v has %d cells, headers %d", row, len(row), len(tab.Headers))
		}
		for _, cell := range row[1:] {
			if cellFloat(t, cell) < 0 {
				t.Errorf("negative cell %q in row %v", cell, row)
			}
		}
	}
}

// TestServingHTTPShape: the HTTP load sweep produces one row per offered
// point with ascending offered load, successful requests at every point,
// and coherent percentiles. No throughput ordering is asserted — achieved
// qps depends on the host — only well-formedness of the sweep.
func TestServingHTTPShape(t *testing.T) {
	cfg := Small()
	cfg.Queries = 6
	cfg.Workers = 2
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := r.ServingHTTP()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 offered-load rows, got %d", len(tab.Rows))
	}
	prevOffered := -1.0
	for _, row := range tab.Rows {
		offered := cellFloat(t, row[1])
		if offered <= prevOffered {
			t.Errorf("offered load not ascending: %v", tab.Rows)
		}
		prevOffered = offered
		if ok := cellFloat(t, row[3]); ok <= 0 {
			t.Errorf("row %v: no successful requests", row)
		}
		if p50, p99 := cellFloat(t, row[6]), cellFloat(t, row[7]); p99+1e-9 < p50 {
			t.Errorf("row %v: p99 %.2f below p50 %.2f", row, p99, p50)
		}
	}
}

// TestServingBatchShape: the batch+cache sweep produces well-formed rows
// whose deterministic columns behave — zero hits without duplicates, a
// substantial hit rate at 50% duplicates, and fewer batch RPCs per query
// than the shard count (the whole point of batch scatter). Wall-clock
// columns (goodput, speedup, p99) are only checked to parse: their
// magnitudes depend on the host.
func TestServingBatchShape(t *testing.T) {
	cfg := Small()
	cfg.Queries = 6 // 48-query streams keep the sweep fast under -race
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := r.ServingBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 batch sizes x 2 duplicate rates)", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		dup := cellFloat(t, row[2])
		hit := cellFloat(t, row[7])
		rpcs := cellFloat(t, row[9])
		speedup := cellFloat(t, strings.TrimSuffix(row[5], "x"))
		if cellFloat(t, row[3]) <= 0 || cellFloat(t, row[4]) <= 0 || speedup <= 0 {
			t.Errorf("row %v: non-positive wall-clock cells", row)
		}
		if dup == 0 && hit != 0 {
			t.Errorf("row %v: hits without duplicates", row)
		}
		if dup == 50 && hit < 20 {
			t.Errorf("row %v: hit rate %v%% too low for 50%% duplicates", row, hit)
		}
		if rpcs >= 2 {
			t.Errorf("row %v: %v RPCs per query — batch scatter saved nothing over one-per-shard-per-query", row, rpcs)
		}
	}
}
