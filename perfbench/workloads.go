package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/grid"
	"repro/internal/query"
)

// spec is one named serving workload: the deployment it starts and the
// traffic it drives. The record set is chaos.SyntheticRecords(universe,
// seed, records) on every side — the daemons regenerate it from the seed,
// the benchmark regenerates it as the oracle.
type spec struct {
	curve     string
	d, k      int
	records   int
	shards    int
	distinct  int     // > 0: reads draw from this many boxes, zipf-skewed; 0: a fresh box per read
	zipfS     float64 // zipf exponent over the distinct boxes
	maxSide   uint32  // box sides are uniform in [1, maxSide]
	stream    bool    // reads stream batches (QueryBoxStream) instead of buffering
	rate      float64 // open-loop offered rate, operations per second
	setups    int     // deployments launched to time set-up; the last one serves the run
	genProcs  int     // OS threads (GOMAXPROCS) the generator drives this load with
	verifyOne int     // verify every verifyOne-th read record-for-record

	// The workload property each run asserts: the daemon's
	// decomposition-cache hit rate stays within these bounds.
	minHitRate, maxHitRate float64
}

// The open-loop rates are about a quarter of the closed-loop capacity
// each workload measured on a 2-CPU Intel Xeon host (Go 1.24, Linux 6.18):
// hot-small 5000/s of ~21k, cold-large 350/s of ~1250. The server is
// loaded but not saturated, so latency reads as service time plus honest
// queueing rather than as a backlog, and keeps doing so when a busy
// neighbour on a shared host halves the capacity for a while, as one did
// during the runs that set these rates.
var specs = map[string]*spec{
	"hot-small": {
		curve: "hilbert", d: 2, k: 12, records: 1_000_000, shards: 8,
		distinct: 512, zipfS: 1.2, maxSide: 32, rate: 5000, setups: 7, genProcs: 1, verifyOne: 16,
		minHitRate: 0.9, maxHitRate: 1,
	},
	"cold-large": {
		curve: "hilbert", d: 2, k: 12, records: 1_000_000, shards: 8,
		maxSide: 512, stream: true, rate: 350, setups: 7, genProcs: 2, verifyOne: 32,
		minHitRate: 0, maxHitRate: 0.05,
	},
}

// splitmix64 is the SplitMix64 finalizer: a bijective mix that turns
// (seed, index) pairs into independent-looking 64-bit words, so any
// operation of a trace can be generated without replaying the ones before.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a tiny deterministic generator seeded per operation.
type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s = splitmix64(r.s); return r.s }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// op is one read of a trace.
type op struct {
	box   query.Box
	cells uint64
}

// trace is a workload's operation sequence, a pure function of (spec, seed):
// op(i) is the same on every run with the same seed.
type trace struct {
	sp    *spec
	u     *grid.Universe
	seed  uint64
	boxes []query.Box // the distinct population when sp.distinct > 0
	cdf   []float64   // zipf CDF over boxes
}

func newTrace(sp *spec, u *grid.Universe, seed int64) *trace {
	t := &trace{sp: sp, u: u, seed: splitmix64(uint64(seed) ^ 0x5eed)}
	if sp.distinct > 0 {
		// The seed places the boxes; their sides are a fixed function of
		// popularity rank, so every seed offers the same mix of box sizes
		// and runs with different seeds measure the same work.
		r := rng{s: t.seed ^ 0xb0c5}
		sides := rng{s: 0xb0c5}
		t.boxes = make([]query.Box, sp.distinct)
		for i := range t.boxes {
			t.boxes[i] = placeBox(&r, u, boxSides(&sides, u, sp.maxSide))
		}
		t.cdf = make([]float64, sp.distinct)
		var sum float64
		for i := range t.cdf {
			sum += 1 / math.Pow(float64(i+1), sp.zipfS)
			t.cdf[i] = sum
		}
		for i := range t.cdf {
			t.cdf[i] /= sum
		}
	}
	return t
}

// boxSides draws box sides uniform in [1, maxSide]; placeBox puts a box of
// those sides uniformly inside the universe.
func boxSides(r *rng, u *grid.Universe, maxSide uint32) []uint32 {
	sides := make([]uint32, u.D())
	for d := range sides {
		sides[d] = min(1+uint32(r.next()%uint64(maxSide)), u.Side())
	}
	return sides
}

func placeBox(r *rng, u *grid.Universe, sides []uint32) query.Box {
	lo, hi := u.NewPoint(), u.NewPoint()
	for d, side := range sides {
		lo[d] = uint32(r.next() % uint64(u.Side()-side+1))
		hi[d] = lo[d] + side - 1
	}
	return query.Box{Lo: lo, Hi: hi}
}

func (t *trace) op(i int) op {
	r := rng{s: t.seed ^ splitmix64(uint64(i))}
	var b query.Box
	if t.boxes != nil {
		b = t.boxes[sort.SearchFloat64s(t.cdf, r.float())%len(t.boxes)]
	} else {
		// Fresh boxes: the seed places each one, while its sides depend on
		// the operation's index alone, so runs with different seeds send
		// the same sequence of box sizes.
		sides := rng{s: splitmix64(uint64(i) ^ 0x51de)}
		b = placeBox(&r, t.u, boxSides(&sides, t.u, t.sp.maxSide))
	}
	return op{box: b, cells: b.Volume()}
}

func lookupSpec(name string) (*spec, error) {
	if sp, ok := specs[name]; ok {
		return sp, nil
	}
	if name == "stretch" {
		return nil, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have hot-small, cold-large, stretch)", name)
}
