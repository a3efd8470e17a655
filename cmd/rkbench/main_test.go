package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/server"
)

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table3", "figure6", "figure7", "table15"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q in list:\n%s", want, sb.String())
		}
	}
}

func TestRunSingleExperimentSmall(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "table3", "-scale", "small"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "=== table3") || !strings.Contains(out, "largest set size") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunOverrides(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "figure7", "-scale", "small", "-queries", "3", "-seed", "5", "-ks", "5,10"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "3 queries per point") {
		t.Errorf("queries override missing:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "wat"}, &sb); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-exp", "table99", "-scale", "small"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-ks", "x,y", "-scale", "small"}, &sb); err == nil {
		t.Error("bad ks accepted")
	}
}

func TestRunExperimentList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "table3, table4", "-scale", "small"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "=== table3") || !strings.Contains(out, "=== table4") {
		t.Errorf("comma list did not run both experiments:\n%s", out)
	}
}

// TestLoadGenMode drives the -serve-url load generator against an
// in-process serving stack and checks the table and JSON artifact.
func TestLoadGenMode(t *testing.T) {
	t.Chdir(t.TempDir())
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 4, Seed: 3})
	pool := core.NewPool(g, core.Options{}, 2)
	srv, err := server.New(server.Config{Pool: pool, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var sb strings.Builder
	err = run([]string{
		"-serve-url", ts.URL, "-rate", "50,100", "-duration", "300ms",
		"-k", "5", "-algo", "dynamic", "-json",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Load generator") || !strings.Contains(out, "offered (qps)") {
		t.Errorf("output:\n%s", out)
	}
	data, err := os.ReadFile("BENCH_loadgen.json")
	if err != nil {
		t.Fatalf("missing JSON artifact: %v", err)
	}
	var report struct {
		Experiment string `json:"experiment"`
		Tables     []struct {
			Rows [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if report.Experiment != "loadgen" || len(report.Tables) != 1 || len(report.Tables[0].Rows) != 2 {
		t.Errorf("report = %+v", report)
	}

	if err := run([]string{"-serve-url", ts.URL, "-rate", "bogus"}, &sb); err == nil {
		t.Error("bad -rate accepted")
	}
	if err := run([]string{"-serve-url", "http://127.0.0.1:1"}, &sb); err == nil {
		t.Error("unreachable server accepted")
	}
}

func TestRunLatencyWithJSON(t *testing.T) {
	t.Chdir(t.TempDir())
	var sb strings.Builder
	err := run([]string{"-exp", "latency", "-scale", "small", "-queries", "4", "-json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "=== latency") || !strings.Contains(out, "allocs/query") {
		t.Errorf("output:\n%s", out)
	}
	data, err := os.ReadFile("BENCH_latency.json")
	if err != nil {
		t.Fatalf("missing JSON artifact: %v", err)
	}
	var report struct {
		Experiment string  `json:"experiment"`
		Scale      string  `json:"scale"`
		ElapsedSec float64 `json:"elapsed_sec"`
		Tables     []struct {
			Title   string     `json:"title"`
			Headers []string   `json:"headers"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v\n%s", err, data)
	}
	if report.Experiment != "latency" || report.Scale != "small" || len(report.Tables) != 1 {
		t.Errorf("report = %+v", report)
	}
	if rows := report.Tables[0].Rows; len(rows) != 2 {
		t.Errorf("expected one row per dataset (2), got %d", len(rows))
	}
}
