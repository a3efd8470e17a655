package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/graph"
	"rkranks/internal/obs"
)

// opTimeout bounds one request, as a client deadline would.
const opTimeout = 10 * time.Second

// phase collects one load phase's outcomes.
type phase struct {
	mu        sync.Mutex
	lat       map[string][]float64 // ms per operation class
	lateness  []float64            // ms the generator sent after the due time
	attempted int
	failed    int
	answered  int // queries answered, each query of a batch counted
	errs      map[string]int
	cpu       time.Duration // process CPU time the phase used
}

func newPhase() *phase {
	return &phase{lat: make(map[string][]float64), errs: make(map[string]int)}
}

// observe records one operation of class cls.
func (p *phase) observe(cls string, d time.Duration, answered int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		p.errs[errClass(err)]++
		return
	}
	p.answered += answered
	p.lat[cls] = append(p.lat[cls], ms(d))
}

func (p *phase) late(d time.Duration) {
	p.mu.Lock()
	p.lateness = append(p.lateness, ms(d))
	p.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// errPartial marks an answer a cluster degraded to partial.
var errPartial = errors.New("partial answer")

func errClass(err error) string {
	var se *api.StatusError
	switch {
	case errors.As(err, &se):
		return fmt.Sprintf("%d %s", se.Status, se.Code)
	case errors.Is(err, errPartial):
		return "partial"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	}
	return "transport"
}

// class names the latency class of an op: dblp's k=100 queries are the
// workload's secondary class.
func class(o op) string {
	switch {
	case o.kind == opBatch:
		return "batch"
	case o.k >= deepMin:
		return "deep"
	}
	return "query"
}

// send issues one op and returns how many queries it answered. With a
// tracer, the call is recorded as the client span of a fresh request id.
func send(ctx context.Context, c *api.Client, o op, tr *tracer) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var id uint64
	rt := routeQuery
	if o.kind == opBatch {
		rt = routeBatch
	}
	var start int64
	if tr != nil {
		var t *obs.Trace
		ctx, id, t = tr.newRequest(ctx, rt)
		defer t.Release()
		start = tr.now()
	}
	n, err := call(ctx, c, o)
	if tr != nil {
		s := span{id: id, start: start, end: tr.now(), layer: layerClient, route: rt, queries: n}
		if err != nil {
			s.status = 1
		}
		tr.add(s)
	}
	return n, err
}

func call(ctx context.Context, c *api.Client, o op) (int, error) {
	if o.kind == opBatch {
		resp, err := c.Batch(ctx, "", o.qs, o.k, opTimeout)
		if err != nil {
			return 0, err
		}
		if len(resp.Results) != len(o.qs) {
			return 0, fmt.Errorf("batch answered %d of %d queries", len(resp.Results), len(o.qs))
		}
		for _, r := range resp.Results {
			if r.Partial {
				return 0, errPartial
			}
		}
		return len(o.qs), nil
	}
	resp, err := c.Query(ctx, "", o.q, o.k, opTimeout)
	if err != nil {
		return 0, err
	}
	if resp.Partial {
		return 0, errPartial
	}
	return 1, nil
}

// openLoop sends the stream's next count requests on a fixed schedule at
// rate per second, spread over senders goroutines, and times each from
// its due time.
func openLoop(ctx context.Context, c *api.Client, ops *opStream, rate float64, count, senders int, tr *tracer) *phase {
	p := newPhase()
	first := ops.next()
	t0 := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, i, ok := ops.take(first + count)
				if !ok {
					return
				}
				due := t0.Add(time.Duration(float64(i-first) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				p.late(time.Since(due))
				n, err := send(ctx, c, o, tr)
				p.observe(class(o), time.Since(due), n, err)
			}
		}()
	}
	wg.Wait()
	return p
}

// closedLoop runs clients that each send their next request when the
// previous one returns, for d or until the stream has generated limit
// requests (limit < 0: no limit). It returns the phase and its length.
func closedLoop(ctx context.Context, c *api.Client, ops *opStream, limit int, d time.Duration, clients int, tr *tracer) (*phase, time.Duration) {
	p := newPhase()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for s := 0; s < clients; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o, _, ok := ops.take(limit)
				if !ok {
					return
				}
				t := time.Now()
				n, err := send(ctx, c, o, tr)
				p.observe(class(o), time.Since(t), n, err)
			}
		}()
	}
	wg.Wait()
	p.cpu = cpuTime() - cpu0
	return p, time.Since(start)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mutator sends mutation batches on a fixed schedule until stopped.
type mutator struct {
	stream  *mutStream
	rate    float64
	p       *phase
	applied [][]graph.Mutation // batches that returned success, in order
	// kind maps a traced batch's request id to whether it rebuilt.
	kind             map[uint64]bool
	patches, rebuild int // batches applied of each kind
	stop             chan struct{}
	done             chan struct{}
}

func startMutator(ctx context.Context, c *api.Client, stream *mutStream, rate float64, tr *tracer) *mutator {
	m := &mutator{stream: stream, rate: rate, p: newPhase(), kind: make(map[uint64]bool),
		stop: make(chan struct{}), done: make(chan struct{})}
	go m.run(ctx, c, tr)
	return m
}

func (m *mutator) run(ctx context.Context, c *api.Client, tr *tracer) {
	defer close(m.done)
	t0 := time.Now()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(float64(i) / m.rate * float64(time.Second)))
		select {
		case <-m.stop:
			return
		case <-time.After(time.Until(due)):
		}
		m.p.late(time.Since(due))
		batch, topo := m.stream.next()
		err := m.send(ctx, c, batch, topo, tr)
		m.p.observe("mutate", time.Since(due), 0, err)
		m.stream.ack(err == nil)
		if err == nil {
			m.applied = append(m.applied, batch)
			if topo {
				m.rebuild++
			} else {
				m.patches++
			}
		}
	}
}

func (m *mutator) send(ctx context.Context, c *api.Client, batch []graph.Mutation, topo bool, tr *tracer) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if tr == nil {
		_, err := c.Mutate(ctx, batch, opTimeout)
		return err
	}
	ctx, id, t := tr.newRequest(ctx, routeMutate)
	defer t.Release()
	m.kind[id] = topo
	start := tr.now()
	_, err := c.Mutate(ctx, batch, opTimeout)
	s := span{id: id, start: start, end: tr.now(), layer: layerClient, route: routeMutate}
	if err != nil {
		s.status = 1
	}
	tr.add(s)
	return err
}

// halt stops the mutator and waits for its last batch to return.
func (m *mutator) halt() {
	close(m.stop)
	<-m.done
}
