package main

import (
	"math/rand"
	"sync"

	"rkranks/internal/graph"
)

// opKind is the wire operation a generated request uses.
type opKind uint8

const (
	opQuery opKind = iota // POST /v1/query
	opBatch               // POST /v1/batch
)

// pair is one (q, k) query.
type pair struct {
	q int32
	k int
}

// op is one generated request.
type op struct {
	kind opKind
	q    int32   // opQuery
	qs   []int32 // opBatch
	k    int
}

// traffic is a workload's read mix.
type traffic struct {
	// repeatsPer10 is how many requests in every block of ten repeat a
	// uniformly random earlier (q, k); the rest are pairs not sent yet.
	repeatsPer10 int
	// batchEvery makes one request in every batchEvery a /v1/batch of
	// batchSize new pairs sharing one k (0 = no batches).
	batchEvery, batchSize int
	// newK draws the k of a new pair.
	newK func(r *rand.Rand) int
}

// opStream is a workload's request sequence. The same seed gives the
// same sequence; concurrent senders draw from it in order.
type opStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	mix   traffic
	nodes int
	seen  map[pair]bool
	sent  []pair // every pair generated so far, in order
	slot  []bool // repeat positions of the current block of ten
	batch int    // batch position in the current block of batchEvery
	i     int    // requests generated so far

	queries, repeats, batches, deep int
	// exhausted counts new pairs the generator could not find unsent
	// and repeated an earlier pair for instead.
	exhausted int
}

func newOpStream(seed int64, nodes int, mix traffic) *opStream {
	return &opStream{
		rng:   rand.New(rand.NewSource(seed)),
		mix:   mix,
		nodes: nodes,
		seen:  make(map[pair]bool),
	}
}

// take returns the next request and its index, unless limit requests
// have already been generated (limit < 0 means no limit).
func (s *opStream) take(limit int) (op, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit >= 0 && s.i >= limit {
		return op{}, 0, false
	}
	o := s.gen()
	i := s.i
	s.i++
	return o, i, true
}

// next is the index the next request will get.
func (s *opStream) next() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.i
}

func (s *opStream) gen() op {
	r := s.rng
	if s.i%10 == 0 {
		s.slot = make([]bool, 10)
		for _, p := range r.Perm(10)[:s.mix.repeatsPer10] {
			s.slot[p] = true
		}
	}
	if s.mix.batchEvery > 0 {
		if s.i%s.mix.batchEvery == 0 {
			s.batch = r.Intn(s.mix.batchEvery)
		}
		if s.i%s.mix.batchEvery == s.batch {
			k := s.mix.newK(r)
			o := op{kind: opBatch, k: k, qs: make([]int32, s.mix.batchSize)}
			for j := range o.qs {
				o.qs[j] = s.fresh(k).q
			}
			s.batches++
			return o
		}
	}
	s.queries++
	var p pair
	if s.slot[s.i%10] && len(s.sent) > 0 {
		p = s.sent[r.Intn(len(s.sent))]
		s.repeats++
	} else {
		p = s.fresh(s.mix.newK(r))
	}
	if p.k >= deepMin {
		s.deep++
	}
	return op{kind: opQuery, q: p.q, k: p.k}
}

// fresh draws a pair not generated before. Should the pair space run
// dry, it returns a random, hence already sent, pair and counts it in
// exhausted, which the run reports.
func (s *opStream) fresh(k int) pair {
	for try := 0; try < 1000; try++ {
		p := pair{q: int32(s.rng.Intn(s.nodes)), k: k}
		if !s.seen[p] {
			s.seen[p] = true
			s.sent = append(s.sent, p)
			return p
		}
	}
	s.exhausted++
	return pair{q: int32(s.rng.Intn(s.nodes)), k: k}
}

// sample returns the first n distinct pairs the stream generated.
func (s *opStream) sample(n int) []pair {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]pair(nil), s.sent[:min(n, len(s.sent))]...)
}

// mutStream is cluster-churn's mutation sequence: batches of weight
// patches on the start graph's edges, with every tenth batch inserting
// one new edge or deleting the edge inserted before, so the topology
// keeps returning to its start.
type mutStream struct {
	rng     *rand.Rand
	nodes   int
	edges   []graph.Edge
	has     map[[2]graph.NodeID]bool
	pending *graph.Edge // inserted edge awaiting deletion
	j       int
	last    []graph.Mutation
	lastIns *graph.Edge
}

// patchesPerBatch is the size of a weight-patch batch.
const patchesPerBatch = 8

func newMutStream(seed int64, g *graph.Graph) *mutStream {
	m := &mutStream{rng: rand.New(rand.NewSource(seed ^ 0x6d757461)), nodes: g.N(), has: make(map[[2]graph.NodeID]bool)}
	g.Edges(func(e graph.Edge) bool {
		m.edges = append(m.edges, e)
		m.has[edgeKey(e.From, e.To)] = true
		return true
	})
	return m
}

func edgeKey(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

// next returns the next batch and whether it changes the topology. The
// caller reports the outcome with ack before asking for another.
func (m *mutStream) next() ([]graph.Mutation, bool) {
	m.j++
	m.lastIns = nil
	if m.j%10 == 0 {
		if m.pending != nil {
			m.last = []graph.Mutation{graph.DeleteEdge(m.pending.From, m.pending.To)}
			return m.last, true
		}
		for {
			u, v := graph.NodeID(m.rng.Intn(m.nodes)), graph.NodeID(m.rng.Intn(m.nodes))
			if u != v && !m.has[edgeKey(u, v)] {
				m.lastIns = &graph.Edge{From: u, To: v, Weight: weight(m.rng)}
				m.last = []graph.Mutation{graph.InsertEdge(u, v, m.lastIns.Weight)}
				return m.last, true
			}
		}
	}
	m.last = make([]graph.Mutation, patchesPerBatch)
	for i := range m.last {
		e := m.edges[m.rng.Intn(len(m.edges))]
		m.last[i] = graph.SetWeight(e.From, e.To, weight(m.rng))
	}
	return m.last, false
}

// ack records whether the last batch applied; the insert/delete
// alternation follows the applied state.
func (m *mutStream) ack(applied bool) {
	if !applied || len(m.last) != 1 {
		return
	}
	switch m.last[0].Op {
	case graph.MutInsertEdge:
		m.pending = m.lastIns
		m.has[edgeKey(m.lastIns.From, m.lastIns.To)] = true
	case graph.MutDeleteEdge:
		delete(m.has, edgeKey(m.pending.From, m.pending.To))
		m.pending = nil
	}
}

// weight draws an edge weight in the dblp generator's range (0, 1].
func weight(r *rand.Rand) float64 { return 0.05 + 0.95*r.Float64() }
