package core

import (
	"repro/internal/curve"
	"repro/internal/grid"
)

// Kernelized sweep partials: when the curve advertises a batch/neighbor-key
// fast path (curve.HasKernel), the exact engines process cells in
// chunk-local blocks — one batched encode for the cells' own keys, then one
// NeighborKeysBlock call for their neighbors — instead of a FromLinear and
// 1+2d interface Index calls per cell. The per-cell integer aggregates
// (sum, max, degree) and their exact totals are identical to the scalar
// partials, so the results are bit-for-bit the same; the conformance
// engine's kernel-sweep column enforces that permanently.

// kernelBlock is the number of cells whose coordinates and keys are staged
// per batch: big enough to amortize dispatch, small enough that the staging
// buffers (12 bytes per cell at d=3) stay in L1.
const kernelBlock = 256

// fillBlockCoords writes the coordinates of the cells with Linear indices
// [lo, lo+cnt) into coords, row-major, by decoding the first cell and
// incrementing with carries from there (dimension 0 is least significant).
// The copy-and-carry is fused into one elementwise pass — a memmove call per
// 8-byte row would dominate the whole sweep kernel.
func fillBlockCoords(u *grid.Universe, lo uint64, cnt int, coords []uint32) {
	d := u.D()
	side := u.Side()
	u.FromLinear(lo, grid.Point(coords[:d]))
	for j := 1; j < cnt; j++ {
		prev := coords[(j-1)*d : j*d : j*d]
		row := coords[j*d : (j+1)*d : (j+1)*d]
		i := 0
		for ; i < d; i++ {
			if v := prev[i] + 1; v < side {
				row[i] = v
				i++
				break
			}
			row[i] = 0
		}
		for ; i < d; i++ {
			row[i] = prev[i]
		}
	}
}

// accumulate folds one neighbor key into a cell's (sum, max, degree)
// aggregate.
func accumulate(base, nb uint64, sum, max uint64, deg int) (uint64, uint64, int) {
	if nb == curve.InvalidKey {
		return sum, max, deg
	}
	dd := nb - base
	if base > nb {
		dd = base - nb
	}
	sum += dd
	if dd > max {
		max = dd
	}
	return sum, max, deg + 1
}

// addBlock adds the cells of one block to a: cell j has key bases[j] and
// neighbor keys keys[j*nd : (j+1)*nd]. The d = 2, 3 rows are unrolled and
// the loop makes no calls: it runs once per cell of every exact sweep, and
// at ~20 surviving ops per cell the loop bookkeeping itself is measurable.
// Most cells have the full degree nd, so that class and the maxima are
// summed in locals, which keeps their carry chains in registers rather
// than in a load-add-store loop through a.byDeg.
func (a *nnAcc) addBlock(bases, keys []uint64, nd int) {
	var full, maxes u128
	for j, base := range bases {
		row := keys[j*nd : (j+1)*nd : (j+1)*nd]
		var sum, max uint64
		deg := 0
		switch nd {
		case 4:
			sum, max, deg = accumulate(base, row[0], sum, max, deg)
			sum, max, deg = accumulate(base, row[1], sum, max, deg)
			sum, max, deg = accumulate(base, row[2], sum, max, deg)
			sum, max, deg = accumulate(base, row[3], sum, max, deg)
		case 6:
			sum, max, deg = accumulate(base, row[0], sum, max, deg)
			sum, max, deg = accumulate(base, row[1], sum, max, deg)
			sum, max, deg = accumulate(base, row[2], sum, max, deg)
			sum, max, deg = accumulate(base, row[3], sum, max, deg)
			sum, max, deg = accumulate(base, row[4], sum, max, deg)
			sum, max, deg = accumulate(base, row[5], sum, max, deg)
		default:
			for _, nb := range row {
				sum, max, deg = accumulate(base, nb, sum, max, deg)
			}
		}
		if deg == nd {
			full = full.plus(sum)
		} else {
			a.byDeg[deg] = a.byDeg[deg].plus(sum)
		}
		maxes = maxes.plus(max)
	}
	a.byDeg[nd] = a.byDeg[nd].plusU128(full)
	a.max = a.max.plusU128(maxes)
}

// nnKernelPartial is the kernelized chunk worker behind NNStretchResult
// and, with torus set, NNStretchTorusResult: per cell the integer (sum, max,
// degree) over valid neighbors, added to the same exact totals as the
// scalar partials.
func nnKernelPartial(c curve.Curve, u *grid.Universe, torus bool) func(lo, hi uint64) nnAcc {
	d := u.D()
	return func(lo, hi uint64) nnAcc {
		b := curve.NewBatcher(c)
		nk := curve.NewNeighborKeyer(c)
		nd := 2 * d
		coords := make([]uint32, kernelBlock*d)
		bases := make([]uint64, kernelBlock)
		keys := make([]uint64, kernelBlock*nd)
		a := newNNAcc(d)
		for blo := lo; blo < hi; blo += kernelBlock {
			cnt := kernelBlock
			if rem := hi - blo; rem < kernelBlock {
				cnt = int(rem)
			}
			fillBlockCoords(u, blo, cnt, coords)
			b.IndexBatch(coords[:cnt*d], bases[:cnt])
			if torus {
				nk.NeighborKeysTorusBlock(coords[:cnt*d], bases[:cnt], keys[:cnt*nd])
			} else {
				nk.NeighborKeysBlock(coords[:cnt*d], bases[:cnt], keys[:cnt*nd])
			}
			a.addBlock(bases[:cnt], keys[:cnt*nd], nd)
		}
		return a
	}
}

// lambdasKernelPartial is the kernelized chunk worker behind Lambdas: only
// the +1 neighbor keys contribute (the unordered pair (α, α+e_dim) is
// charged to α).
func lambdasKernelPartial(c curve.Curve, u *grid.Universe) func(lo, hi uint64) []uint64 {
	d := u.D()
	return func(lo, hi uint64) []uint64 {
		b := curve.NewBatcher(c)
		nk := curve.NewNeighborKeyer(c)
		nd := 2 * d
		coords := make([]uint32, kernelBlock*d)
		bases := make([]uint64, kernelBlock)
		keys := make([]uint64, kernelBlock*nd)
		sums := make([]uint64, d)
		for blo := lo; blo < hi; blo += kernelBlock {
			cnt := kernelBlock
			if rem := hi - blo; rem < kernelBlock {
				cnt = int(rem)
			}
			fillBlockCoords(u, blo, cnt, coords)
			b.IndexBatch(coords[:cnt*d], bases[:cnt])
			nk.NeighborKeysBlock(coords[:cnt*d], bases[:cnt], keys[:cnt*nd])
			for j := 0; j < cnt; j++ {
				base := bases[j]
				for dim := 0; dim < d; dim++ {
					if nb := keys[j*nd+2*dim+1]; nb != curve.InvalidKey {
						sums[dim] += absDiff(base, nb)
					}
				}
			}
		}
		return sums
	}
}
