package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// The stretch workload is the paper's own computation: the open-grid and
// torus nearest-neighbor stretch engines over every structured curve, with
// no serving layer involved.
var (
	stretchCurves = []string{"z", "simple", "snake", "gray", "hilbert"}
	stretchSizes  = []struct{ d, k int }{{2, 11}, {3, 7}}
)

// Set-up for the stretch workload is building its ten curves, which takes
// about a microsecond and is mostly allocation, so a single build's time is
// set by where the collector and the host's scheduler happen to be. Before
// every engine call pair the workload rebuilds all ten curves setupBatch
// times (a few milliseconds) and runs the engines on the last build; the
// reported figure is the median over the run of these samples, divided by
// setupBatch. Spread over the whole run, the samples see the same host as
// the engines do, not just its state in the first milliseconds.
const setupBatch = 2000

type stretchJob struct {
	name string
	d, k int
	c    curve.Curve
}

func buildStretchJobs(seed int64) ([]stretchJob, error) {
	var jobs []stretchJob
	for _, sz := range stretchSizes {
		u, err := grid.New(sz.d, sz.k)
		if err != nil {
			return nil, err
		}
		for _, name := range stretchCurves {
			c, err := curve.ByName(name, u, seed)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, stretchJob{name: name, d: sz.d, k: sz.k, c: c})
		}
	}
	return jobs, nil
}

type stretchReport struct {
	setups        []float64
	calls, failed int
	passes        int
	lat, ttfb     samples
	cells         float64
	elapsed       time.Duration
	cpu           time.Duration
	rssKB         int64
	gcFrac        float64
	heapMB        float64
	traceOverhead float64
	problems      []string
}

// runStretch sweeps every job with both engines, pass after pass, until
// seconds have elapsed, checking each result against the closed forms and
// the paper's lower bound.
func runStretch(env *runEnv, spans *spanLog) (*stretchReport, error) {
	rep := &stretchReport{}
	jobs, err := buildStretchJobs(env.seed)
	if err != nil {
		return nil, err
	}
	// setUp times one set-up sample and returns its last build.
	setUp := func() ([]stretchJob, error) {
		var js []stretchJob
		var err error
		t := time.Now()
		for i := 0; i < setupBatch; i++ {
			if js, err = buildStretchJobs(env.seed); err != nil {
				return nil, err
			}
		}
		rep.setups = append(rep.setups, time.Since(t).Seconds()/setupBatch)
		return js, nil
	}
	workers := runtime.NumCPU()

	// The seed picks the cells whose local stretch is spot-checked against
	// a direct recomputation.
	r := rng{s: splitmix64(uint64(env.seed))}
	for _, j := range jobs {
		u := j.c.Universe()
		p := u.NewPoint()
		u.FromLinear(r.next()%u.N(), p)
		if err := spotCheck(j.c, p); err != nil {
			rep.problems = append(rep.problems, err.Error())
			rep.failed++
		}
	}

	gc0 := readGCStats()
	self0, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	// In a traced run odd passes record a span around every engine call;
	// their cell rate against the even passes' is the tracing overhead.
	var passRate [2]samples
	start := time.Now()
	for ; rep.passes == 0 || time.Since(start) < env.seconds; rep.passes++ {
		pass := rep.passes
		traced := env.trace && pass%2 == 1
		passStart := time.Now()
		var passCells float64
		for ji := range jobs {
			fresh, err := setUp()
			if err != nil {
				return nil, err
			}
			j := fresh[ji]
			t := time.Now()
			sp := spans.begin(traced)
			open := core.NNStretchResult(j.c, workers)
			spans.end(sp, "core.NNStretchResult", rep.calls, opResult{done: time.Now()})
			// A job's first result is its open-grid answer.
			rep.lat.add(time.Since(t))
			rep.ttfb.add(time.Since(t))
			t = time.Now()
			sp = spans.begin(traced)
			torus := core.NNStretchTorusResult(j.c, workers)
			spans.end(sp, "core.NNStretchTorusResult", rep.calls+1, opResult{done: time.Now()})
			rep.lat.add(time.Since(t))
			n := float64(j.c.Universe().N())
			rep.cells += 2 * n
			passCells += 2 * n
			rep.calls += 2
			if pass == 0 {
				if err := checkStretch(j, open, torus); err != nil {
					rep.problems = append(rep.problems, err.Error())
					rep.failed++
				}
			}
		}
		passRate[pass%2] = append(passRate[pass%2], passCells/time.Since(passStart).Seconds())
	}
	rep.elapsed = time.Since(start)
	if env.trace && len(passRate[1]) > 0 {
		rep.traceOverhead = 1 - median(passRate[1])/median(passRate[0])
	}
	self1, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.cpu = self1.cpu - self0.cpu
	rep.rssKB = self1.hwmKB
	gc1 := readGCStats()
	rep.gcFrac = (gc1.gcCPU - gc0.gcCPU) / math.Max(gc1.totalCPU-gc0.totalCPU, 1e-9)
	rep.heapMB = gc1.heapMB

	// Σ over neighbor pairs of the Z curve's index distance has an exact
	// closed form; the sweep is checked against it once per run.
	for _, j := range jobs {
		if j.name != "z" {
			continue
		}
		want := bounds.ZSumNNExact(j.d, j.k)
		if got := core.SumNN(j.c, workers); !want.IsUint64() || want.Uint64() != got {
			rep.problems = append(rep.problems, fmt.Sprintf("z d=%d k=%d: SumNN %d, closed form %v", j.d, j.k, got, want))
			rep.failed++
		}
	}
	return rep, nil
}

// checkStretch validates one job's results: the simple curve against its
// exact closed forms, every curve against Theorem 1's lower bound, and the
// torus engine against the open grid (a cell's torus neighbors include its
// open-grid ones, so its largest distance can only grow).
func checkStretch(j stretchJob, open, torus core.NN) error {
	if lb := bounds.NNAvgLowerBound(j.d, j.k); open.DAvg < lb {
		return fmt.Errorf("%s d=%d k=%d: Davg %.6g below Theorem 1's bound %.6g", j.name, j.d, j.k, open.DAvg, lb)
	}
	if open.DMax < open.DAvg {
		return fmt.Errorf("%s d=%d k=%d: Dmax %.6g < Davg %.6g", j.name, j.d, j.k, open.DMax, open.DAvg)
	}
	if torus.DMax < open.DMax*(1-1e-12) {
		return fmt.Errorf("%s d=%d k=%d: torus Dmax %.6g below open-grid %.6g", j.name, j.d, j.k, torus.DMax, open.DMax)
	}
	if j.name == "simple" {
		if want := bounds.SimpleDAvgExact(j.d, j.k); math.Abs(open.DAvg-want) > 1e-9*want {
			return fmt.Errorf("simple d=%d k=%d: Davg %.12g, exact %.12g", j.d, j.k, open.DAvg, want)
		}
		if want := bounds.SimpleDMaxExact(j.d, j.k); math.Abs(open.DMax-want) > 1e-9*want {
			return fmt.Errorf("simple d=%d k=%d: Dmax %.12g, exact %.12g", j.d, j.k, open.DMax, want)
		}
	}
	return nil
}

// spotCheck recomputes one cell's average neighbor distance by hand and
// compares it with core.DeltaAvgAt.
func spotCheck(c curve.Curve, p grid.Point) error {
	u := c.Universe()
	base := c.Index(p)
	var sum float64
	deg := 0
	q := p.Clone()
	for d := range p {
		for _, step := range []int64{-1, 1} {
			v := int64(p[d]) + step
			if v < 0 || v >= int64(u.Side()) {
				continue
			}
			q[d] = uint32(v)
			k := c.Index(q)
			if k > base {
				sum += float64(k - base)
			} else {
				sum += float64(base - k)
			}
			deg++
			q[d] = p[d]
		}
	}
	want := sum / float64(deg)
	if got := core.DeltaAvgAt(c, p); math.Abs(got-want) > 1e-9*math.Max(want, 1) {
		return fmt.Errorf("%s: local stretch at %v is %.9g, direct recomputation %.9g", c.Name(), p, got, want)
	}
	return nil
}

// coreRung measures the core engines' per-cell cost for every stretch job
// and how far the torus engine's result moves with the worker count.
func coreRung(env *runEnv, m map[string]float64) {
	jobs, err := buildStretchJobs(env.seed)
	if err != nil {
		return
	}
	workers := runtime.NumCPU()
	var ulps uint64
	for _, j := range jobs {
		n := float64(j.c.Universe().N())
		key := fmt.Sprintf("%s.d%d", j.name, j.d)
		t := time.Now()
		core.NNStretchResult(j.c, workers)
		m["core.ns_per_cell_open."+key] = float64(time.Since(t).Nanoseconds()) / n
		t = time.Now()
		many := core.NNStretchTorusResult(j.c, workers)
		m["core.ns_per_cell_torus."+key] = float64(time.Since(t).Nanoseconds()) / n
		one := core.NNStretchTorusResult(j.c, 1)
		ulps += ulpDiff(many.DAvg, one.DAvg) + ulpDiff(many.DMax, one.DMax)
	}
	m["core.torus_ulps_workers"] = float64(ulps)
}

// ulpDiff is the distance in units of least precision between two finite
// float64 values of the same sign.
func ulpDiff(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

type gcStats struct {
	gcCPU, totalCPU float64 // seconds
	heapMB          float64
}

// readGCStats reads this process's GC CPU, total CPU and live heap from
// runtime/metrics: the stretch workload's worker is the benchmark process
// itself, so its GC share cannot come from a child's gctrace.
func readGCStats() gcStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	var g gcStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		g.heapMB = float64(s[2].Value.Uint64()) / (1 << 20)
	}
	return g
}
