package api

import (
	"testing"
	"time"
)

// TestLatencyRingWindow: the ring reports nothing until it has observed a
// latency, then percentiles over at most its window, evicting the oldest
// observations first.
func TestLatencyRingWindow(t *testing.T) {
	r := NewLatencyRing(4)
	if s := r.Snapshot(); s != (LatencySnapshot{}) {
		t.Fatalf("empty ring snapshot = %+v", s)
	}
	for _, ms := range []int{100, 1, 2, 3, 4} {
		r.Observe(time.Duration(ms) * time.Millisecond)
	}
	s := r.Snapshot()
	if s.Window != 4 {
		t.Fatalf("window = %d, want 4", s.Window)
	}
	// The 100 ms observation was evicted: the window holds 1..4 ms.
	if s.P50 != 2 || s.P90 != 4 || s.P99 != 4 || s.Mean != 2.5 {
		t.Errorf("snapshot = %+v, want p50 2, p90 4, p99 4, mean 2.5", s)
	}
}
