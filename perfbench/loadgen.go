package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is what one issued operation reports back to the load loop.
type opResult struct {
	ok    bool
	start time.Time // when the request left the generator
	first time.Time // when its first result batch was in hand (= done for buffered reads)
	done  time.Time
}

// issueFunc performs operation idx of the trace on behalf of worker w.
// There are at most nproc workers, one connection each.
type issueFunc func(ctx context.Context, w, idx int, o op) opResult

// phaseStats aggregates one load phase.
type phaseStats struct {
	attempted, ok int
	readLat       samples
	readTTFB      samples
	readAt        []time.Duration // when each read was sent (closed) or due (open), from the phase start
	okDone        []time.Duration // completion of each successful operation, from the phase start
	okCells       []uint64        // its query-box cells
	late          samples         // open loop: how late the generator dispatched each request
	undone        int             // open loop: requests still queued when the phase gave up
	start         time.Time
	elapsed       time.Duration
}

func (p *phaseStats) merge(o *phaseStats) {
	p.attempted += o.attempted
	p.ok += o.ok
	p.readLat = append(p.readLat, o.readLat...)
	p.readTTFB = append(p.readTTFB, o.readTTFB...)
	p.readAt = append(p.readAt, o.readAt...)
	p.okDone = append(p.okDone, o.okDone...)
	p.okCells = append(p.okCells, o.okCells...)
	p.undone += o.undone
}

// record files one finished operation, timed from t0: the send time in a
// closed loop, the due time in an open loop.
func (p *phaseStats) record(o op, r opResult, t0 time.Time) {
	p.attempted++
	if !r.ok {
		return
	}
	p.ok++
	p.okDone = append(p.okDone, r.done.Sub(p.start))
	p.okCells = append(p.okCells, o.cells)
	p.readLat.add(r.done.Sub(t0))
	p.readTTFB.add(r.first.Sub(t0))
	p.readAt = append(p.readAt, t0.Sub(p.start))
}

// maxWindows is how many equal time windows a phase is cut into for the
// reported figures: each figure is the median of its per-window values, so
// one stall on a shared host moves one window, not the result.
const maxWindows = 9

// windowedRate is the median over the phase's windows of successful
// operations (or, with cells, query-box cells) completed per second.
func (p *phaseStats) windowedRate(cells bool) float64 { return median(p.windowRates(cells)) }

// windowRates returns windowedRate's per-window values.
func (p *phaseStats) windowRates(cells bool) []float64 {
	w := p.elapsed / maxWindows
	if w <= 0 {
		return []float64{0}
	}
	sums := make([]float64, maxWindows)
	for i, at := range p.okDone {
		k := min(int(at/w), maxWindows-1)
		if cells {
			sums[k] += float64(p.okCells[i])
		} else {
			sums[k]++
		}
	}
	for k := range sums {
		sums[k] /= w.Seconds()
	}
	return sums
}

// maxLatencyWindows caps the windows a latency percentile is taken over;
// latency spikes on a shared host come in short bursts, so a percentile
// needs many short windows for their median to settle.
const maxLatencyWindows = 256

// minLatencyWindows is the fewest windows worth taking a median over.
const minLatencyWindows = 5

// windowedPercentile is the median over windows of the nearest-rank q-th
// percentile of xs, whose samples were issued at the offsets at. The phase
// is cut into as many windows (at most maxLatencyWindows) as leave minPer
// samples in each, so every window's percentile keeps its samples beyond it.
func windowedPercentile(xs samples, at []time.Duration, span time.Duration, q float64, minPer int) float64 {
	return median(windowPercentiles(xs, at, span, q, minPer))
}

// windowPercentiles returns windowedPercentile's per-window values.
func windowPercentiles(xs samples, at []time.Duration, span time.Duration, q float64, minPer int) []float64 {
	k := min(maxLatencyWindows, len(xs)/minPer)
	if k < minLatencyWindows {
		k = 1 // a median of a few windows is noisier than one pooled percentile
	}
	w := span / time.Duration(k)
	if w <= 0 {
		return []float64{nearestRank(xs, q)}
	}
	parts := make([][]float64, k)
	for i, x := range xs {
		j := min(int(at[i]/w), k-1)
		parts[j] = append(parts[j], x)
	}
	var vals []float64
	for _, part := range parts {
		if len(part) > 0 {
			vals = append(vals, nearestRank(part, q))
		}
	}
	return vals
}

// closedLoop runs conns workers, each sending its next operation as soon
// as the previous one completes, for dur. Operation indices are drawn from
// next so consecutive phases continue one trace.
func closedLoop(ctx context.Context, conns int, dur time.Duration, next *atomic.Int64, opAt func(int) op, issue issueFunc) phaseStats {
	start := time.Now()
	end := start.Add(dur)
	parts := make([]phaseStats, conns)
	for i := range parts {
		parts[i].start = start
	}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				idx := int(next.Add(1) - 1)
				o := opAt(idx)
				t0 := time.Now()
				parts[w].record(o, issue(ctx, w, idx, o), t0)
			}
		}(w)
	}
	wg.Wait()
	out := phaseStats{start: start}
	for i := range parts {
		out.merge(&parts[i])
	}
	out.elapsed = time.Since(start)
	return out
}

// schedule returns the send offsets of an open-loop phase: a constant rate
// per second over dur. Evenly spaced sends, rather than Poisson ones, keep
// the queueing the schedule itself creates out of the latency, so a run
// measures the server's queueing and not how its arrivals happened to bunch.
func schedule(rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

type openJob struct {
	idx int
	due time.Time
}

// openLoop sends operation firstIdx+k at offset sched[k] whether or not
// earlier ones have finished. A request that comes due while all conns
// workers are busy waits in the generator's queue, and that wait counts:
// latency is measured from the due time, not from the send. Requests still
// queued grace after the schedule ends are counted as attempted and failed.
func openLoop(ctx context.Context, conns int, sched []time.Duration, firstIdx int, grace time.Duration, opAt func(int) op, issue issueFunc) phaseStats {
	var out phaseStats
	if len(sched) == 0 {
		return out
	}
	start := time.Now().Add(time.Millisecond) // the workers below are running by then
	queue := make(chan openJob, len(sched))   // holds the whole schedule: the dispatcher never blocks
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([]phaseStats, conns)
	for i := range parts {
		parts[i].start = start
	}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range queue {
				if ctx.Err() != nil {
					parts[w].attempted++
					parts[w].undone++
					continue
				}
				o := opAt(j.idx)
				parts[w].record(o, issue(ctx, w, j.idx, o), j.due)
			}
		}(w)
	}
	late := make(samples, 0, len(sched))
	for k, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late.add(time.Since(due))
		queue <- openJob{idx: firstIdx + k, due: due}
	}
	close(queue)
	stopAt := time.AfterFunc(time.Until(start.Add(sched[len(sched)-1]).Add(grace)), cancel)
	wg.Wait()
	stopAt.Stop()
	out.start = start
	for i := range parts {
		out.merge(&parts[i])
	}
	out.late = late
	out.elapsed = sched[len(sched)-1]
	return out
}
