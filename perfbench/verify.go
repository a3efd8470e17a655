package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"rkranks/internal/api"
	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/live"
)

// reference answers the check queries: a direct single-node Dynamic
// backend over a private copy of the graph.
type reference interface {
	QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error)
}

// newReference builds the reference for a stack. applied, when not nil,
// are the mutation batches the stack acknowledged, replayed in order on
// a private live store.
func newReference(ctx context.Context, cfg stackConfig, applied [][]graph.Mutation) (reference, uint64, error) {
	g, err := gen.Named(cfg.graph, cfg.nodes, graphSeed)
	if err != nil {
		return nil, 0, err
	}
	if applied == nil {
		return core.NewPool(g, core.Options{}, 0), 0, nil
	}
	store, err := live.NewStore(g, live.Config{})
	if err != nil {
		return nil, 0, err
	}
	for i, b := range applied {
		if _, err := store.Mutate(ctx, b); err != nil {
			return nil, 0, fmt.Errorf("perfbench: reference replay of batch %d: %w", i, err)
		}
	}
	return store, store.Generation(), nil
}

// checkResult is the output check's outcome.
type checkResult struct {
	attempted, failed int
	mismatches        []string
	// Refinements the stack and the reference spent on the sample's
	// single queries; their ratio is cluster.work_amplification.
	stackRef, refRef int64
}

// check sends every sample pair through the stack, once as /v1/query and
// once inside a /v1/batch per k, and compares each answer's entries
// byte for byte with the reference's. gen, when not 0, is the generation
// every stack answer must carry.
func check(ctx context.Context, c *api.Client, ref reference, gen uint64, sample []pair) (*checkResult, error) {
	out := &checkResult{}
	want := make(map[pair][]byte, len(sample))
	byK := make(map[int][]int32)
	for _, p := range sample {
		res, err := ref.QueryContext(ctx, core.Dynamic, p.q, p.k)
		if err != nil {
			return nil, fmt.Errorf("perfbench: reference query %v: %w", p, err)
		}
		want[p] = entryBytes(wireEntries(res))
		out.refRef += int64(res.Stats.Refinements)
		byK[p.k] = append(byK[p.k], p.q)
	}
	verdict := func(p pair, got []api.Entry, g uint64, err error) {
		out.attempted++
		switch {
		case err != nil:
			out.mismatches = append(out.mismatches, fmt.Sprintf("q=%d k=%d: %v", p.q, p.k, err))
		case gen != 0 && g != gen:
			out.mismatches = append(out.mismatches, fmt.Sprintf("q=%d k=%d: generation %d, reference %d", p.q, p.k, g, gen))
		case !bytes.Equal(entryBytes(got), want[p]):
			out.mismatches = append(out.mismatches, fmt.Sprintf("q=%d k=%d: entries %s, reference %s", p.q, p.k, entryBytes(got), want[p]))
		}
	}
	for _, p := range sample {
		resp, err := c.Query(ctx, "", p.q, p.k, opTimeout)
		if err == nil && resp.Partial {
			err = errPartial
		}
		if err != nil {
			verdict(p, nil, 0, err)
			continue
		}
		if resp.Stats != nil {
			out.stackRef += int64(resp.Stats.Refinements)
		}
		verdict(p, resp.Entries, resp.Generation, nil)
	}
	ks := make([]int, 0, len(byK))
	for k := range byK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		qs := byK[k]
		resp, err := c.Batch(ctx, "", qs, k, opTimeout)
		if err == nil && len(resp.Results) != len(qs) {
			err = fmt.Errorf("batch answered %d of %d queries", len(resp.Results), len(qs))
		}
		for i, q := range qs {
			p := pair{q: q, k: k}
			if err != nil {
				verdict(p, nil, 0, err)
				continue
			}
			r := resp.Results[i]
			if r.Partial {
				verdict(p, nil, 0, errPartial)
				continue
			}
			verdict(p, r.Entries, r.Generation, nil)
		}
	}
	out.failed = len(out.mismatches)
	return out, nil
}

func wireEntries(res *core.Result) []api.Entry {
	out := make([]api.Entry, len(res.Entries))
	for i, e := range res.Entries {
		out[i] = api.Entry{Node: e.Node, Rank: e.Rank}
	}
	return out
}

// entryBytes is the canonical encoding answers are compared in.
func entryBytes(es []api.Entry) []byte {
	if es == nil {
		es = []api.Entry{}
	}
	b, err := json.Marshal(es)
	if err != nil {
		panic(err) // api.Entry always encodes
	}
	return b
}
