// Package pqueue implements an indexed 4-ary min-heap over dense int32
// node ids with float64 priorities and decrease-key support.
//
// The queue is built once per graph size and reused across queries: Reset is
// O(1) thanks to epoch-stamped bookkeeping, so a query touching t nodes
// costs O(t log t) regardless of the graph size. This matters for the
// reverse k-ranks engines, which run thousands of small partial Dijkstra
// searches over multi-million-node graphs.
//
// Layout: heap slots hold (priority, node) pairs, so every sift comparison
// reads one contiguous 16-byte entry instead of chasing heap[i] into a
// scattered per-node priority array — the dependent load that otherwise
// dominates pop-heavy workloads. A 4-ary slot scan stays within one cache
// line of the pair array. Per-node state (priority for lookups, heap slot,
// epoch stamp) is one packed 16-byte record, touched once per push or
// slot move, never inside a comparison.
package pqueue

// entry is one heap slot: the node and the priority it is queued with.
type entry struct {
	prio float64
	node int32
}

// nodeMeta is the per-node record: current (or final, once popped)
// priority, heap slot, and the epoch the record belongs to. 16 bytes, so
// four nodes share a cache line.
type nodeMeta struct {
	prio  float64
	pos   int32
	stamp uint32
}

// Queue is an indexed min-heap. The zero value is unusable; call New.
// Queues are not safe for concurrent use.
type Queue struct {
	meta  []nodeMeta
	heap  []entry
	epoch uint32
}

const popped = int32(-1)

// New returns a queue over node ids [0, n).
func New(n int) *Queue {
	return &Queue{
		meta: make([]nodeMeta, n),
		heap: make([]entry, 0, 64),
	}
}

// Grow widens the id space to at least n, preserving current contents.
func (q *Queue) Grow(n int) {
	if n <= len(q.meta) {
		return
	}
	meta := make([]nodeMeta, n)
	copy(meta, q.meta)
	q.meta = meta
}

// Cap returns the size of the id space.
func (q *Queue) Cap() int { return len(q.meta) }

// Reset empties the queue in O(1).
func (q *Queue) Reset() {
	q.heap = q.heap[:0]
	q.epoch++
	if q.epoch == 0 { // epoch wrapped: clear stamps for safety
		clear(q.meta)
		q.epoch = 1
	}
}

// Len returns the number of queued nodes.
func (q *Queue) Len() int { return len(q.heap) }

// Contains reports whether v is currently queued (pushed and not popped).
func (q *Queue) Contains(v int32) bool {
	m := &q.meta[v]
	return m.stamp == q.epoch && m.pos != popped
}

// Seen reports whether v was pushed at any point since the last Reset,
// whether or not it has been popped.
func (q *Queue) Seen(v int32) bool { return q.meta[v].stamp == q.epoch }

// Popped reports whether v was pushed and subsequently popped since the
// last Reset. It is Seen(v) && !Contains(v) collapsed into a single
// record read — the settled check of every Dijkstra wrapper runs
// through here.
func (q *Queue) Popped(v int32) bool {
	m := &q.meta[v]
	return m.stamp == q.epoch && m.pos == popped
}

// Priority returns the current priority of a queued node v. If v was popped
// it returns the priority it was popped with. The result is unspecified
// when !Seen(v).
func (q *Queue) Priority(v int32) float64 { return q.meta[v].prio }

// Push inserts v with priority p, or lowers v's priority to p when v is
// already queued with a higher priority. It reports whether the queue
// changed (false when v is queued with priority <= p, or already popped).
func (q *Queue) Push(v int32, p float64) bool {
	m := &q.meta[v]
	if m.stamp != q.epoch {
		// Fast path: first touch of v this epoch. Append and sift up;
		// up() writes the slot, so no slot bookkeeping is needed here.
		m.stamp = q.epoch
		m.prio = p
		q.heap = append(q.heap, entry{p, v})
		q.up(len(q.heap) - 1)
		return true
	}
	if m.pos == popped || m.prio <= p {
		return false
	}
	m.prio = p
	i := int(m.pos)
	q.heap[i].prio = p
	q.up(i)
	return true
}

// PopMin removes and returns the queued node with the smallest priority,
// breaking ties toward the smaller node id for determinism.
func (q *Queue) PopMin() (int32, float64) {
	root := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.meta[q.heap[0].node].pos = 0
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	q.meta[root.node].pos = popped
	return root.node, root.prio
}

// less orders heap entries by (priority, node id) — the deterministic
// tie-break every engine relies on.
func less(a, b entry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.node < b.node
}

func (q *Queue) up(i int) {
	e := q.heap[i]
	for i > 0 {
		pi := (i - 1) >> 2
		p := q.heap[pi]
		if !less(e, p) {
			break
		}
		q.heap[i] = p
		q.meta[p.node].pos = int32(i)
		i = pi
	}
	q.heap[i] = e
	q.meta[e.node].pos = int32(i)
}

func (q *Queue) down(i int) {
	e := q.heap[i]
	n := len(q.heap)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		bi := c
		b := q.heap[c]
		for j := c + 1; j < end; j++ {
			if h := q.heap[j]; less(h, b) {
				bi, b = j, h
			}
		}
		if !less(b, e) {
			break
		}
		q.heap[i] = b
		q.meta[b.node].pos = int32(i)
		i = bi
	}
	q.heap[i] = e
	q.meta[e.node].pos = int32(i)
}
