package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrdering(t *testing.T) {
	q := New(10)
	q.Reset()
	q.Push(3, 2.5)
	q.Push(7, 0.5)
	q.Push(1, 1.5)
	wantOrder := []int32{7, 1, 3}
	wantPrio := []float64{0.5, 1.5, 2.5}
	for i := range wantOrder {
		v, p := q.PopMin()
		if v != wantOrder[i] || p != wantPrio[i] {
			t.Fatalf("pop %d = (%d,%g), want (%d,%g)", i, v, p, wantOrder[i], wantPrio[i])
		}
	}
	if q.Len() != 0 {
		t.Error("queue not empty")
	}
}

func TestDecreaseKey(t *testing.T) {
	q := New(5)
	q.Reset()
	q.Push(0, 10)
	q.Push(1, 5)
	if !q.Push(0, 1) {
		t.Fatal("decrease-key rejected")
	}
	if q.Push(0, 3) {
		t.Error("increase accepted")
	}
	v, p := q.PopMin()
	if v != 0 || p != 1 {
		t.Fatalf("pop = (%d,%g), want (0,1)", v, p)
	}
}

func TestPushAfterPopIgnored(t *testing.T) {
	q := New(5)
	q.Reset()
	q.Push(2, 1)
	q.PopMin()
	if q.Push(2, 0.1) {
		t.Error("re-push of settled node accepted")
	}
	if q.Contains(2) {
		t.Error("settled node reported queued")
	}
	if !q.Seen(2) {
		t.Error("settled node not seen")
	}
}

func TestTieBreakByID(t *testing.T) {
	q := New(10)
	q.Reset()
	q.Push(9, 1)
	q.Push(2, 1)
	q.Push(5, 1)
	want := []int32{2, 5, 9}
	for _, w := range want {
		if v, _ := q.PopMin(); v != w {
			t.Fatalf("tie order broke: got %d want %d", v, w)
		}
	}
}

func TestResetIsolation(t *testing.T) {
	q := New(4)
	q.Reset()
	q.Push(0, 1)
	q.Push(1, 2)
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("reset left entries")
	}
	if q.Seen(0) || q.Contains(1) {
		t.Error("stale state visible after reset")
	}
	q.Push(1, 9)
	if p := q.Priority(1); p != 9 {
		t.Errorf("priority %g after reset, want 9", p)
	}
}

func TestEpochWraparound(t *testing.T) {
	q := New(3)
	q.epoch = ^uint32(0) - 1 // force the wrap path
	q.Reset()
	q.Push(0, 1)
	q.Reset() // wraps to 0 -> must clear stamps and restart at 1
	if q.Seen(0) {
		t.Error("stale Seen after epoch wrap")
	}
	q.Push(0, 2)
	if v, p := q.PopMin(); v != 0 || p != 2 {
		t.Errorf("post-wrap pop = (%d,%g)", v, p)
	}
}

func TestGrow(t *testing.T) {
	q := New(2)
	q.Reset()
	q.Push(1, 5)
	q.Grow(10)
	if q.Cap() != 10 {
		t.Fatalf("Cap = %d", q.Cap())
	}
	q.Push(9, 1)
	if v, _ := q.PopMin(); v != 9 {
		t.Errorf("pop after grow = %d, want 9", v)
	}
	if v, _ := q.PopMin(); v != 1 {
		t.Errorf("pre-grow entry lost")
	}
	q.Grow(5) // shrink request is a no-op
	if q.Cap() != 10 {
		t.Error("Grow shrank the queue")
	}
}

// TestAgainstSortReference is a property test: any push/decrease sequence
// must pop in exactly the order of the final priorities with id tie-break.
func TestAgainstSortReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		q := New(n)
		q.Reset()
		final := map[int32]float64{}
		ops := rng.Intn(200)
		for i := 0; i < ops; i++ {
			v := int32(rng.Intn(n))
			p := float64(rng.Intn(50)) / 4
			if cur, ok := final[v]; !ok || p < cur {
				if q.Push(v, p) {
					final[v] = p
				}
			} else {
				q.Push(v, p) // should be a no-op
			}
		}
		type pair struct {
			v int32
			p float64
		}
		var want []pair
		for v, p := range final {
			want = append(want, pair{v, p})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].p != want[j].p {
				return want[i].p < want[j].p
			}
			return want[i].v < want[j].v
		})
		if q.Len() != len(want) {
			return false
		}
		for _, w := range want {
			v, p := q.PopMin()
			if v != w.v || p != w.p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestInterleavedPopPush mixes pops into the stream, mirroring Dijkstra's
// access pattern, and verifies the pop sequence is globally nondecreasing.
func TestInterleavedPopPush(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	q := New(500)
	for trial := 0; trial < 20; trial++ {
		q.Reset()
		last := -1.0
		pops := 0
		for i := 0; i < 400; i++ {
			if q.Len() > 0 && rng.Intn(3) == 0 {
				_, p := q.PopMin()
				// Dijkstra property requires monotone pops only when new
				// priorities are >= the last pop; enforce that in pushes.
				if p < last {
					t.Fatalf("pop went backwards: %g after %g", p, last)
				}
				last = p
				pops++
				continue
			}
			v := int32(rng.Intn(500))
			base := last
			if base < 0 {
				base = 0
			}
			q.Push(v, base+rng.Float64())
		}
		_ = pops
	}
}

// FuzzPopOrder drives the queue with an arbitrary op stream (pushes,
// decrease-keys, interleaved pops) using heavily quantized priorities so
// ties are the common case, and asserts every pop matches a reference
// sort by (priority, node id) of the nodes still queued. Run with
// `go test -fuzz=FuzzPopOrder` to search beyond the seed corpus.
func FuzzPopOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 128, 7, 7, 7, 3, 3, 9, 200, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 16
		q := New(n)
		q.Reset()
		final := map[int32]float64{}
		for i := 0; i+1 < len(ops); i += 2 {
			if ops[i]&0x80 != 0 && q.Len() > 0 {
				wv, wp := popReference(final)
				v, p := q.PopMin()
				if v != wv || p != wp {
					t.Fatalf("op %d: popped (%d,%g), reference (%d,%g)", i, v, p, wv, wp)
				}
				delete(final, v)
				continue
			}
			v := int32(ops[i] % n)
			p := float64(ops[i+1] % 8) // few distinct values -> dense ties
			if _, ok := final[v]; ok || q.Seen(v) {
				if cur, ok := final[v]; ok && p < cur && q.Push(v, p) {
					final[v] = p
				} else {
					q.Push(v, p) // increase or re-push of popped: no-op
				}
				continue
			}
			if q.Push(v, p) {
				final[v] = p
			}
		}
		for q.Len() > 0 {
			wv, wp := popReference(final)
			v, p := q.PopMin()
			if v != wv || p != wp {
				t.Fatalf("drain: popped (%d,%g), reference (%d,%g)", v, p, wv, wp)
			}
			delete(final, v)
		}
		if len(final) != 0 {
			t.Fatalf("queue drained but reference still holds %v", final)
		}
	})
}

// popReference returns the (node, priority) pair a correct queue must pop
// next: smallest priority, smaller id on ties.
func popReference(final map[int32]float64) (int32, float64) {
	best := int32(-1)
	bp := 0.0
	for v, p := range final {
		if best < 0 || p < bp || (p == bp && v < best) {
			best, bp = v, p
		}
	}
	return best, bp
}

func TestPopped(t *testing.T) {
	q := New(3)
	q.Reset()
	q.Push(1, 1)
	if q.Popped(1) || q.Popped(2) {
		t.Error("Popped true before any pop")
	}
	q.PopMin()
	if !q.Popped(1) {
		t.Error("Popped false after pop")
	}
	if q.Popped(2) {
		t.Error("never-seen node reported popped")
	}
	q.Reset()
	if q.Popped(1) {
		t.Error("Popped survived Reset")
	}
}

func TestPriorityOfPopped(t *testing.T) {
	q := New(3)
	q.Reset()
	q.Push(1, 4.5)
	q.PopMin()
	if p := q.Priority(1); p != 4.5 {
		t.Errorf("popped priority = %g, want 4.5", p)
	}
}
