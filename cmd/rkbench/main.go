// Command rkbench regenerates the paper's evaluation tables and figures
// (Section 6) on the synthetic stand-in datasets. Each experiment prints a
// table whose rows mirror the paper's.
//
// Usage:
//
//	rkbench -exp all                 # the full suite at the default scale
//	rkbench -exp figure6 -scale small
//	rkbench -exp figure6,latency -json       # a comma-separated subset
//	rkbench -exp table11 -queries 200 -seed 7
//	rkbench -exp serving -workers 8  # pooled Indexed QPS on a shared index
//	rkbench -exp latency             # single-query p50/p99 and allocations
//	rkbench -exp serving_http        # in-process HTTP load sweep
//	rkbench -list
//
// With -json, each experiment additionally writes a machine-readable
// BENCH_<experiment>.json in the working directory, so perf trajectories
// can be tracked across commits without scraping the text tables
// (cmd/benchdiff compares two sets of these artifacts in CI).
//
// Load-generator mode drives a LIVE rkserve instance instead of running
// in-process experiments — open-loop arrivals at fixed offered rates:
//
//	rkbench -serve-url http://localhost:8080 -rate 200,400,800 -duration 10s -k 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"rkranks"
	"rkranks/internal/experiments"
	"rkranks/internal/server"
	"rkranks/internal/stats"
)

// jsonReport is the machine-readable form of one experiment's output.
type jsonReport struct {
	Experiment string  `json:"experiment"`
	Scale      string  `json:"scale"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// AllocsPerQuery / BytesPerQuery summarize the steady-state allocation
	// cost of the warm batch-serving hot path at this scale, measured once
	// per invocation (experiments.Runner.SteadyStateAllocs); nil in
	// load-generator mode. The per-dataset breakdown lives in the latency
	// experiment's allocs/query and bytes/query columns, which is where
	// benchdiff gates it.
	AllocsPerQuery *float64       `json:"allocs_per_query,omitempty"`
	BytesPerQuery  *float64       `json:"bytes_per_query,omitempty"`
	Tables         []*stats.Table `json:"tables"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rkbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rkbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment name or 'all' (see -list)")
		scale   = fs.String("scale", "default", "dataset scale: small|default")
		queries = fs.Int("queries", 0, "override queries per measurement point")
		workers = fs.Int("workers", 0, "max pool workers for the serving experiment (0 = GOMAXPROCS)")
		seed    = fs.Int64("seed", 0, "override random seed")
		ksFlag  = fs.String("ks", "", "override k axis, comma separated (e.g. 5,10,20)")
		jsonOut = fs.Bool("json", false, "also write BENCH_<experiment>.json per experiment")
		list    = fs.Bool("list", false, "list experiment names and exit")

		serveURL = fs.String("serve-url", "", "load-generator mode: base URL of a running rkserve (e.g. http://localhost:8080)")
		rates    = fs.String("rate", "100,200,400", "offered arrival rates (req/s) to sweep, comma separated (-serve-url mode)")
		duration = fs.Duration("duration", 5*time.Second, "measurement window per offered rate (-serve-url mode)")
		algo     = fs.String("algo", "", "per-request algorithm; empty = server default (-serve-url mode)")
		loadK    = fs.Int("k", 10, "result size per request (-serve-url mode)")
		timeout  = fs.Duration("timeout", 2*time.Second, "per-request deadline (-serve-url mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *serveURL != "" {
		return runLoadGen(stdout, loadGenParams{
			url: *serveURL, rates: *rates, duration: *duration,
			algo: *algo, k: *loadK, timeout: *timeout,
			seed: *seed, jsonOut: *jsonOut,
		})
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}

	var cfg experiments.Config
	switch *scale {
	case "small":
		cfg = experiments.Small()
	case "default":
		cfg = experiments.Default()
	default:
		return fmt.Errorf("unknown -scale %q (want small|default)", *scale)
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *ksFlag != "" {
		cfg.Ks = nil
		for _, part := range strings.Split(*ksFlag, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -ks entry %q: %v", part, err)
			}
			cfg.Ks = append(cfg.Ks, k)
			if k > cfg.KMax {
				cfg.KMax = k
			}
		}
	}

	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		return err
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = experiments.Names()
	}
	var allocsPQ, bytesPQ *float64
	if *jsonOut {
		// One steady-state allocation sample per invocation, stamped into
		// every report written below.
		a, b, err := runner.SteadyStateAllocs()
		if err != nil {
			return fmt.Errorf("steady-state alloc probe: %w", err)
		}
		allocsPQ, bytesPQ = &a, &b
		fmt.Fprintf(stdout, "steady state: %.2f allocs/query, %.1f bytes/query\n", a, b)
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		start := time.Now()
		tables, err := runner.Run(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		elapsed := time.Since(start)
		fmt.Fprintf(stdout, "=== %s (%v) ===\n", name, elapsed.Round(time.Millisecond))
		for _, t := range tables {
			if err := t.Render(stdout); err != nil {
				return err
			}
		}
		if *jsonOut {
			if err := writeJSON(name, *scale, elapsed, tables, allocsPQ, bytesPQ); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return nil
}

// writeJSON records one experiment's tables as BENCH_<name>.json in the
// working directory.
func writeJSON(name, scale string, elapsed time.Duration, tables []*stats.Table, allocsPQ, bytesPQ *float64) error {
	report := jsonReport{
		Experiment:     name,
		Scale:          scale,
		ElapsedSec:     elapsed.Seconds(),
		AllocsPerQuery: allocsPQ,
		BytesPerQuery:  bytesPQ,
		Tables:         tables,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("BENCH_%s.json", name), append(data, '\n'), 0o644)
}

// --- load-generator mode (-serve-url) -----------------------------------

type loadGenParams struct {
	url      string
	rates    string
	duration time.Duration
	algo     string
	k        int
	timeout  time.Duration
	seed     int64
	jsonOut  bool
}

// runLoadGen sweeps open-loop offered load against a live rkserve and
// prints (and with -json records) one row per offered rate. Query nodes
// are sampled uniformly from the server's graph, discovered via /healthz.
func runLoadGen(stdout io.Writer, p loadGenParams) error {
	client := rkranks.NewClient(p.url)
	doc, err := client.Health(context.Background())
	if err != nil {
		return fmt.Errorf("load generator: server not healthy: %w", err)
	}
	nodes, ok := doc["graph_nodes"].(float64)
	if !ok || nodes < 1 {
		return fmt.Errorf("load generator: /healthz reports no graph: %v", doc)
	}
	if p.seed == 0 {
		p.seed = 1
	}
	rng := rand.New(rand.NewSource(p.seed))
	queries := make([]int32, 4096)
	for i := range queries {
		queries[i] = int32(rng.Intn(int(nodes)))
	}

	t := stats.NewTable(fmt.Sprintf("Load generator: open-loop sweep against %s (k=%d)", p.url, p.k),
		"offered (qps)", "achieved (qps)", "sent", "ok", "rejected", "timeout", "errors", "shed", "p50 (ms)", "p99 (ms)")
	start := time.Now()
	for _, part := range strings.Split(p.rates, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || rate <= 0 {
			return fmt.Errorf("bad -rate entry %q", part)
		}
		res, err := server.RunLoad(context.Background(), server.LoadConfig{
			URL:       p.url,
			Algorithm: p.algo,
			Queries:   queries,
			K:         p.k,
			Rate:      rate,
			Duration:  p.duration,
			Timeout:   p.timeout,
			Seed:      p.seed + int64(rate),
		})
		if err != nil {
			return err
		}
		t.Add(fmt.Sprintf("%.0f", res.Offered), fmt.Sprintf("%.0f", res.Achieved),
			res.Sent, res.OK, res.Rejected, res.Deadline, res.Errors, res.Shed,
			fmt.Sprintf("%.2f", res.P50), fmt.Sprintf("%.2f", res.P99))
	}
	t.Note("open loop: arrivals are scheduled at the offered rate regardless of completions; rejected = server 429 admission shed, shed = generator-side drops at the outstanding cap")
	if err := t.Render(stdout); err != nil {
		return err
	}
	if p.jsonOut {
		return writeJSON("loadgen", "live", time.Since(start), []*stats.Table{t}, nil, nil)
	}
	return nil
}
