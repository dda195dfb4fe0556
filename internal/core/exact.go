package core

import (
	"math/big"
	"math/bits"

	"repro/internal/parallel"
)

// Exact NN sums. A cell's neighbor distances are integers and its degree
// takes one of the d+1 values d..2d, so Σ_cells sum/deg is the finite sum
// Σ_g S_g/g over the per-degree totals S_g. The sweeps accumulate S_g and
// the sum of per-cell maxima as 128-bit integers, which any chunking adds
// up to the same bits, and divide once at the end with correct rounding:
// Davg and Dmax come out identical for every worker count.

// u128 is an unsigned 128-bit accumulator.
type u128 struct{ hi, lo uint64 }

// plus returns a + x.
func (a u128) plus(x uint64) u128 {
	var c uint64
	a.lo, c = bits.Add64(a.lo, x, 0)
	a.hi += c
	return a
}

// plusU128 returns a + b.
func (a u128) plusU128(b u128) u128 {
	var c uint64
	a.lo, c = bits.Add64(a.lo, b.lo, 0)
	a.hi += b.hi + c
	return a
}

// bigInt returns a as a big.Int.
func (a u128) bigInt() *big.Int {
	x := new(big.Int).SetUint64(a.hi)
	x.Lsh(x, 64)
	return x.Or(x, new(big.Int).SetUint64(a.lo))
}

// nnAcc carries one chunk's exact totals of the NN sweeps: byDeg[g] sums
// the neighbor-distance sums of the cells of degree g, max sums the cells'
// largest distances.
type nnAcc struct {
	byDeg []u128
	max   u128
}

func newNNAcc(d int) nnAcc { return nnAcc{byDeg: make([]u128, 2*d+1)} }

// nnSweep runs partial over [0, n) in parallel and returns the exactly
// rounded (Davg, Dmax) of the chunk totals it produces.
func nnSweep(n uint64, workers, d int, partial func(lo, hi uint64) nnAcc) NN {
	total := newNNAcc(d)
	for _, a := range parallel.MapRanges(n, workers, partial) {
		for g := range a.byDeg {
			total.byDeg[g] = total.byDeg[g].plusU128(a.byDeg[g])
		}
		total.max = total.max.plusU128(a.max)
	}
	avg := new(big.Rat)
	for g := 1; g < len(total.byDeg); g++ {
		avg.Add(avg, new(big.Rat).SetFrac(total.byDeg[g].bigInt(), big.NewInt(int64(g))))
	}
	cells := new(big.Int).SetUint64(n)
	davg, _ := avg.Quo(avg, new(big.Rat).SetInt(cells)).Float64()
	dmax, _ := new(big.Rat).SetFrac(total.max.bigInt(), cells).Float64()
	return NN{DAvg: davg, DMax: dmax}
}
