package graph

import (
	"math"
	"sync"
	"sync/atomic"
)

// Arc is one packed out-arc: target and weight interleaved, so the Dijkstra
// expand loop streams a single 16-byte-stride array instead of chasing two
// parallel slices (one int32 stream, one float64 stream) through the cache.
type Arc struct {
	To int32
	W  float64
}

// CSR is the packed compressed-sparse-row view of one orientation of a
// Graph: flat []int32 offsets plus an interleaved Arc array, built once
// from the adjacency arrays and immutable afterwards. It preserves the
// Graph's adjacency order exactly (sorted by (target, weight)), so a
// traversal over the packed view settles nodes byte-identically to one
// over the slice view.
//
// Offsets are int32 (half the size of the Graph's int64 offsets); a graph
// whose arc count overflows int32 cannot be packed and Packed returns nil,
// leaving callers on the slice path.
type CSR struct {
	offsets []int32
	arcs    []Arc
}

// N returns the number of nodes.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// NumArcs returns the number of stored arcs (undirected edges count twice).
func (c *CSR) NumArcs() int { return len(c.arcs) }

// Arcs returns the out-arcs of u. The slice aliases internal storage and
// must not be modified.
func (c *CSR) Arcs(u int32) []Arc {
	return c.arcs[c.offsets[u]:c.offsets[u+1]]
}

// Degree returns the out-degree of u.
func (c *CSR) Degree(u int32) int {
	return int(c.offsets[u+1] - c.offsets[u])
}

// Bytes returns the memory footprint of the packed arrays.
func (c *CSR) Bytes() int64 {
	if c == nil {
		return 0
	}
	return int64(len(c.offsets))*4 + int64(len(c.arcs))*16
}

// packCSR builds the packed view from one orientation's adjacency arrays,
// or returns nil when the arc count does not fit int32 offsets.
func packCSR(offsets []int64, targets []int32, weights []float64) *CSR {
	if len(offsets) == 0 {
		return &CSR{offsets: []int32{0}}
	}
	if offsets[len(offsets)-1] > math.MaxInt32 {
		return nil
	}
	c := &CSR{
		offsets: make([]int32, len(offsets)),
		arcs:    make([]Arc, len(targets)),
	}
	for i, o := range offsets {
		c.offsets[i] = int32(o)
	}
	for i, t := range targets {
		c.arcs[i] = Arc{To: t, W: weights[i]}
	}
	return c
}

// packed holds a Graph's lazily built CSR views. It lives in the Graph
// itself, so the views are collected together with their graph (a live
// store drops one graph per topology rebuild).
type packed struct {
	once  sync.Once
	fwd   *CSR
	rev   *CSR
	bytes atomic.Int64
}

// Packed returns the packed forward and reverse CSR views of g, building
// them on first use (concurrency-safe; every caller shares one copy per
// graph). For undirected graphs the reverse view aliases the forward one.
// Both are nil when the graph's arc count overflows int32 offsets — callers
// must then stay on the Neighbors/RNeighbors slice path.
func (g *Graph) Packed() (fwd, rev *CSR) {
	p := &g.pk
	p.once.Do(func() {
		p.fwd = packCSR(g.offsets, g.targets, g.weights)
		if p.fwd == nil {
			return
		}
		if g.directed {
			p.rev = packCSR(g.toffsets, g.ttargets, g.tweights)
			if p.rev == nil {
				p.fwd = nil
				return
			}
			p.bytes.Store(p.fwd.Bytes() + p.rev.Bytes())
		} else {
			p.rev = p.fwd
			p.bytes.Store(p.fwd.Bytes())
		}
	})
	return p.fwd, p.rev
}

// CSRBytes reports the memory footprint of g's packed CSR views: 0 until
// Packed has been called (the views are lazy), the packed byte count
// afterwards. Safe to call concurrently with Packed.
func (g *Graph) CSRBytes() int64 {
	return g.pk.bytes.Load()
}
