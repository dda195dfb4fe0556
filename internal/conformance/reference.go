package conformance

import (
	"math"
	"math/big"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// nnStretchEngine is the production parallel engine under test.
func nnStretchEngine(c curve.Curve, workers int) core.NN {
	return core.NNStretchResult(c, workers)
}

// refNNStretch is the sequential brute-force oracle for (Davg, Dmax): an
// independently-coded single-pass sweep over the cells in Linear order,
// enumerating neighbors through the grid package's callback API rather than
// the engine's inlined dimension loop. It adds each cell's sum/deg and max
// as math/big rationals, so it shares none of the engine's integer
// bookkeeping; the correctly rounded quotient must equal
// core.NNStretchResult bit-for-bit at every worker count.
func refNNStretch(c curve.Curve) (davg, dmax float64) {
	u := c.Universe()
	return refNN(c, func(p, _ grid.Point, visit func(q grid.Point)) {
		u.Neighbors(p, func(_ int, q grid.Point) { visit(q) })
	})
}

// refNNStretchTorus is the same oracle for the periodic-boundary engine,
// with its own wraparound stepping: distinct cells at ±1 modulo the side,
// so a 2-cycle contributes one neighbor and a 1-cycle none.
func refNNStretchTorus(c curve.Curve) (davg, dmax float64) {
	side := c.Universe().Side()
	deltas := []uint32{1}
	if side > 2 {
		deltas = append(deltas, side-1)
	}
	return refNN(c, func(p, q grid.Point, visit func(q grid.Point)) {
		copy(q, p)
		for dim := range p {
			for _, delta := range deltas {
				if q[dim] = (p[dim] + delta) & (side - 1); q[dim] != p[dim] {
					visit(q)
				}
			}
			q[dim] = p[dim]
		}
	})
}

// refNN sums, over every cell p, the rationals Σ|Δ|/deg and max|Δ| of the
// neighbors that neighbors(p, scratch, visit) visits, and returns both
// totals divided by n, correctly rounded to float64.
func refNN(c curve.Curve, neighbors func(p, scratch grid.Point, visit func(q grid.Point))) (davg, dmax float64) {
	u := c.Universe()
	n := u.N()
	if n == 1 {
		return 0, 0
	}
	sumAvg, sumMax := new(big.Rat), new(big.Rat)
	p, q := u.NewPoint(), u.NewPoint()
	for idx := uint64(0); idx < n; idx++ {
		u.FromLinear(idx, p)
		base := c.Index(p)
		sum, max := new(big.Int), uint64(0)
		deg := int64(0)
		neighbors(p, q, func(nb grid.Point) {
			d := absDiff(base, c.Index(nb))
			sum.Add(sum, new(big.Int).SetUint64(d))
			if d > max {
				max = d
			}
			deg++
		})
		if deg == 0 {
			continue
		}
		sumAvg.Add(sumAvg, new(big.Rat).SetFrac(sum, big.NewInt(deg)))
		sumMax.Add(sumMax, new(big.Rat).SetInt(new(big.Int).SetUint64(max)))
	}
	cells := new(big.Rat).SetInt(new(big.Int).SetUint64(n))
	davg, _ = sumAvg.Quo(sumAvg, cells).Float64()
	dmax, _ = sumMax.Quo(sumMax, cells).Float64()
	return davg, dmax
}

// absDiff returns |a − b| for curve indices.
func absDiff(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}

// ulpDiff returns the distance between two non-negative floats in units in
// the last place — the number of representable float64 values strictly
// between them, plus one if they differ. Both arguments must be finite and
// ≥ 0 (every stretch metric is).
func ulpDiff(a, b float64) uint64 {
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	if ba >= bb {
		return ba - bb
	}
	return bb - ba
}
