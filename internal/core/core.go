// Package core implements the paper's proximity-preservation metrics — the
// primary contribution of Xu & Tirthapura, "A Lower Bound on Proximity
// Preservation by Space Filling Curves" (IPDPS 2012).
//
// For a space filling curve π over the universe U (n cells, d dimensions):
//
//   - δavg_π(α): the average curve distance Δπ(α, β) = |π(α) − π(β)| from a
//     cell α to its nearest neighbors β ∈ N(α) (Definition 1).
//   - Davg(π): the average of δavg over all cells — the
//     "average-average nearest-neighbor stretch" (Definition 2).
//   - δmax_π(α), Dmax(π): the max-per-cell variants (Definitions 3, 4).
//   - str_avg,M(π), str_avg,E(π): the average all-pairs stretch under the
//     Manhattan and Euclidean metrics (§V.B).
//   - Λ_i(π): the per-dimension sums of curve distances over nearest-
//     neighbor pairs differing in dimension i (§IV.B), and S_{A′}(π), the
//     total curve distance over all ordered pairs (Lemma 2).
//
// All exact computations run in parallel over contiguous chunks of the cell
// index space with deterministic reductions (see the parallel package), so
// repeated runs yield identical values; the NN engines sum exact integers,
// so their results do not depend on the worker count either. Pass
// workers <= 0 to use GOMAXPROCS.
package core

import (
	"repro/internal/curve"
	"repro/internal/grid"
)

// DeltaAvgAt returns δavg_π(α) (Definition 1): the mean curve distance from
// cell p to its nearest neighbors.
func DeltaAvgAt(c curve.Curve, p grid.Point) float64 {
	sum, _, deg := deltaAt(c, p, c.Universe().NewPoint())
	if deg == 0 {
		return 0
	}
	return float64(sum) / float64(deg)
}

// DeltaMaxAt returns δmax_π(α) (Definition 3): the maximum curve distance
// from cell p to a nearest neighbor.
func DeltaMaxAt(c curve.Curve, p grid.Point) uint64 {
	_, max, _ := deltaAt(c, p, c.Universe().NewPoint())
	return max
}

// deltaAt computes the per-cell neighbor aggregates behind δavg and δmax in
// one pass — the sum and max of Δπ(p, ·) over N(p), and |N(p)| — using
// caller-provided scratch q so sampled and distribution sweeps can hoist
// the allocation out of their loops.
func deltaAt(c curve.Curve, p, q grid.Point) (sum, max uint64, deg int) {
	base := c.Index(p)
	c.Universe().NeighborsInto(p, q, func(_ int, nb grid.Point) {
		dd := absDiff(base, c.Index(nb))
		sum += dd
		if dd > max {
			max = dd
		}
		deg++
	})
	return sum, max, deg
}

// NN bundles the two nearest-neighbor stretch metrics of one curve — the
// paper's Davg (Definition 2) and Dmax (Definition 4) — as a single value,
// so result plumbing never has to carry a bare (davg, dmax) pair.
type NN struct {
	DAvg float64 // average-average nearest-neighbor stretch Davg(π)
	DMax float64 // average-maximum nearest-neighbor stretch Dmax(π)
}

// DAvg returns the average-average nearest-neighbor stretch Davg(π)
// (Definition 2), computed exactly in parallel.
func DAvg(c curve.Curve, workers int) float64 {
	return NNStretchResult(c, workers).DAvg
}

// DMax returns the average-maximum nearest-neighbor stretch Dmax(π)
// (Definition 4), computed exactly in parallel.
func DMax(c curve.Curve, workers int) float64 {
	return NNStretchResult(c, workers).DMax
}

// NNStretchResult computes Davg(π) and Dmax(π) in a single parallel sweep
// over all cells. The sums are exact integers (see nnSweep), so the result
// is the correctly rounded value of the paper's rational definitions and is
// bit-identical for every worker count; the conformance suite checks it
// against an independent math/big oracle. Curves with a kernel fast path
// (curve.HasKernel) are swept with batched key evaluation — the same
// per-cell integer aggregates, so the result is bit-identical to the scalar
// sweep (the conformance kernel-sweep column enforces this).
func NNStretchResult(c curve.Curve, workers int) NN {
	u := c.Universe()
	n := u.N()
	if n == 1 {
		return NN{} // a single cell has no neighbors
	}
	partial := func(lo, hi uint64) nnAcc {
		p := u.NewPoint()
		q := u.NewPoint()
		side := u.Side()
		d := u.D()
		a := newNNAcc(d)
		for idx := lo; idx < hi; idx++ {
			u.FromLinear(idx, p)
			base := c.Index(p)
			var sum, max uint64
			deg := 0
			copy(q, p)
			for dim := 0; dim < d; dim++ {
				if p[dim] > 0 {
					q[dim] = p[dim] - 1
					dd := absDiff(base, c.Index(q))
					sum += dd
					if dd > max {
						max = dd
					}
					deg++
					q[dim] = p[dim]
				}
				if p[dim]+1 < side {
					q[dim] = p[dim] + 1
					dd := absDiff(base, c.Index(q))
					sum += dd
					if dd > max {
						max = dd
					}
					deg++
					q[dim] = p[dim]
				}
			}
			a.byDeg[deg] = a.byDeg[deg].plus(sum)
			a.max = a.max.plus(max)
		}
		return a
	}
	if curve.HasKernel(c) {
		partial = nnKernelPartial(c, u, false)
	}
	return nnSweep(n, workers, u.D(), partial)
}

// absDiff returns |a − b| for curve indices.
func absDiff(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}
