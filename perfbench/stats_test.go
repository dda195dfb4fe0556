package main

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {80, 40}, {99, 50}, {100, 50},
	} {
		if got := nearestRank(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("empty set: %g", got)
	}
	// Unsorted input, left unmodified.
	ys := []float64{3, 1, 2}
	if got := nearestRank(ys, 50); got != 2 {
		t.Errorf("median of {3,1,2} = %g", got)
	}
	if ys[0] != 3 {
		t.Error("nearestRank sorted its input in place")
	}
}

func TestNearestRankIsAnObservedValue(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// ceil(0.99·1000) = 990: the 990th smallest, with ten values beyond.
	if got := nearestRank(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if b := beyond(1000, 99); b != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", b)
	}
	if b := beyond(999, 99); b != 9 {
		t.Errorf("beyond(999, 99) = %d, want 9", b)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {50, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p != 50 && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestScheduleIsAConstantRate(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		dur  time.Duration
	}{
		{2000, 10 * time.Second}, {550, 14 * time.Second}, {3, time.Second},
	} {
		s := schedule(tc.rate, tc.dur)
		if want := int(tc.rate * tc.dur.Seconds()); len(s) != want {
			t.Errorf("%g/s over %v: %d sends, want %d", tc.rate, tc.dur, len(s), want)
		}
		gap := time.Duration(float64(time.Second) / tc.rate)
		for i, off := range s {
			if off < 0 || off >= tc.dur {
				t.Fatalf("%g/s: send %d at %v, outside [0, %v)", tc.rate, i, off, tc.dur)
			}
			if i > 0 {
				// Offsets are computed from the index, so rounding never
				// accumulates: every gap is within a nanosecond of 1/rate.
				if d := off - s[i-1] - gap; d < -time.Nanosecond || d > time.Nanosecond {
					t.Fatalf("%g/s: gap before send %d is %v, want %v", tc.rate, i, off-s[i-1], gap)
				}
			}
		}
	}
}

func TestWindowedPercentileUsesFullWindows(t *testing.T) {
	// 6000 samples over 6s: six windows of 1000, each with ten beyond p99.
	var xs samples
	var at []time.Duration
	for i := 0; i < 6000; i++ {
		xs = append(xs, float64(i%1000+1))
		at = append(at, time.Duration(i)*time.Millisecond)
	}
	w := windowPercentiles(xs, at, 6*time.Second, 99, 1000)
	if len(w) != 6 {
		t.Fatalf("%d windows, want 6", len(w))
	}
	for _, v := range w {
		if v != 990 {
			t.Errorf("window p99 %g, want 990", v)
		}
	}
	// Too few full windows for a median: one pooled percentile.
	if w := windowPercentiles(xs[:3000], at[:3000], 3*time.Second, 99, 1000); len(w) != 1 || w[0] != 990 {
		t.Errorf("3000 samples: windows %v, want one pooled p99 of 990", w)
	}
}

func TestLoadLoopsIssueEveryOperationOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	issue := func(_ context.Context, _, idx int, _ op) opResult {
		mu.Lock()
		seen[idx]++
		mu.Unlock()
		now := time.Now()
		return opResult{ok: idx%7 != 0, start: now, first: now, done: now}
	}
	opAt := func(int) op { return op{cells: 3} }
	var next atomic.Int64
	cl := closedLoop(context.Background(), 2, 20*time.Millisecond, &next, opAt, issue)
	if cl.attempted != int(next.Load()) || cl.attempted == 0 {
		t.Fatalf("closed loop attempted %d of %d issued", cl.attempted, next.Load())
	}
	sched := schedule(10000, 50*time.Millisecond)
	first := int(next.Load())
	ol := openLoop(context.Background(), 2, sched, first, time.Second, opAt, issue)
	if ol.attempted != len(sched) || len(ol.late) != len(sched) {
		t.Fatalf("open loop attempted %d, dispatched %d, scheduled %d", ol.attempted, len(ol.late), len(sched))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("operation %d issued %d times", idx, n)
		}
	}
	if len(seen) != first+len(sched) {
		t.Fatalf("%d operations issued, want %d", len(seen), first+len(sched))
	}
	wantOK := 0
	for i := first; i < first+len(sched); i++ {
		if i%7 != 0 {
			wantOK++
		}
	}
	var cells uint64
	for _, c := range ol.okCells {
		cells += c
	}
	if ol.ok != wantOK || len(ol.readLat) != wantOK || cells != uint64(3*wantOK) {
		t.Fatalf("open loop ok=%d reads=%d cells=%d, want %d, %d, %d", ol.ok, len(ol.readLat), cells, wantOK, wantOK, 3*wantOK)
	}
}
