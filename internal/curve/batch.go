package curve

import (
	"repro/internal/grid"
)

// This file defines the kernel layer of the curve package: optional batch
// and neighbor-key fast paths that compute exactly the same bits as the
// scalar Index/Point methods, but amortize interface dispatch, bounds checks
// and per-point bit fiddling. Every exact metric in the core package is
// O(n·d) curve evaluations, so this layer sets the throughput ceiling of the
// finite-n sweeps. The conformance engine carries a dedicated column
// (kernel-batch / kernel-sweep) proving the fast paths bit-match the scalar
// ones for every registered curve.

// InvalidKey marks a missing neighbor in NeighborKeys output. Curve keys
// occupy at most MaxKeyBits = 62 bits, so the all-ones value can never be a
// real index.
const InvalidKey = ^uint64(0)

// Batcher is the batch evaluation interface: IndexBatch and PointBatch are
// the vectorized forms of Curve.Index and Curve.Point over flat row-major
// coordinate storage (point i occupies coords[i*d : (i+1)*d], the same
// layout the core package uses for its flattened universes).
//
// Implementations must produce bit-identical results to the scalar methods
// and must be safe for concurrent use.
type Batcher interface {
	// IndexBatch writes Index of each of the len(dst) points in coords.
	// coords must have length len(dst)·d.
	IndexBatch(coords []uint32, dst []uint64)
	// PointBatch writes the coordinates of each index into dst, point i at
	// dst[i*d : (i+1)*d]. dst must have length len(indices)·d.
	PointBatch(indices []uint64, dst []uint32)
}

// NeighborKeyer computes the curve indices of a cell's 2d axis neighbors in
// one call — the hot operation of every nearest-neighbor stretch sweep. For
// the Z curve the keys come straight from dilated-integer arithmetic on the
// cell's own key; for the Hilbert curve they re-walk only the state-machine
// levels a unit step changes; the scalar fallback simply loops Curve.Index.
//
// Instances returned by NewNeighborKeyer may carry scratch buffers and are
// NOT safe for concurrent use: create one per goroutine. Implementations
// must not retain or modify p.
type NeighborKeyer interface {
	// NeighborKeys fills keys[2·dim] with the index of p − e_dim and
	// keys[2·dim+1] with the index of p + e_dim, writing InvalidKey where
	// the neighbor lies outside the open grid. base must equal Index(p);
	// keys must have length 2d.
	NeighborKeys(p grid.Point, base uint64, keys []uint64)
	// NeighborKeysTorus is the periodic-boundary variant: coordinates wrap
	// modulo the side length. Following the torus engine's simple-graph
	// convention, on a 2-cycle (side = 2) only the +1 neighbor is emitted
	// (keys[2·dim] is InvalidKey), and on a 1-cycle both slots are
	// InvalidKey.
	NeighborKeysTorus(p grid.Point, base uint64, keys []uint64)
	// NeighborKeysBlock is the block form of NeighborKeys, the shape the
	// core sweeps consume: cell j has point coords[j·d : (j+1)·d], key
	// bases[j], and output slots keys[j·2d : (j+1)·2d]. One call covers
	// len(bases) cells, so the per-cell dispatch cost vanishes and
	// implementations can hoist their masks and tables out of the loop.
	// Implementations that derive neighbor keys from the base key alone may
	// ignore coords.
	NeighborKeysBlock(coords []uint32, bases []uint64, keys []uint64)
	// NeighborKeysTorusBlock is the block form of NeighborKeysTorus.
	NeighborKeysTorusBlock(coords []uint32, bases []uint64, keys []uint64)
}

// HasKernel reports whether c natively implements a kernel fast path
// (Batcher or NeighborKeyer). The core engines consult it to decide between
// the kernelized sweep and the legacy scalar loop; NewBatcher and
// NewNeighborKeyer work for every curve regardless, via scalar adapters.
func HasKernel(c Curve) bool {
	if _, ok := c.(Batcher); ok {
		return true
	}
	_, ok := c.(NeighborKeyer)
	return ok
}

// NewBatcher returns the batch evaluation interface for c: c itself when it
// implements Batcher natively, otherwise a scalar adapter that loops the
// Curve methods (same bits, no speedup).
func NewBatcher(c Curve) Batcher {
	if b, ok := c.(Batcher); ok {
		return b
	}
	return &scalarBatcher{c: c, d: c.Universe().D()}
}

// NewNeighborKeyer returns a neighbor-key kernel for c: the curve's own
// implementation when it is a native NeighborKeyer, and a scalar adapter
// otherwise. The returned value is not safe for concurrent use; create one
// per goroutine.
func NewNeighborKeyer(c Curve) NeighborKeyer {
	if nk, ok := c.(NeighborKeyer); ok {
		return nk
	}
	u := c.Universe()
	return &scalarKeyer{c: c, d: u.D(), side: u.Side(), q: u.NewPoint()}
}

// scalarBatcher adapts any Curve to the Batcher interface by looping the
// scalar methods.
type scalarBatcher struct {
	c Curve
	d int
}

func (s *scalarBatcher) IndexBatch(coords []uint32, dst []uint64) {
	d := s.d
	for i := range dst {
		dst[i] = s.c.Index(grid.Point(coords[i*d : (i+1)*d : (i+1)*d]))
	}
}

func (s *scalarBatcher) PointBatch(indices []uint64, dst []uint32) {
	d := s.d
	for i, idx := range indices {
		s.c.Point(idx, grid.Point(dst[i*d:(i+1)*d:(i+1)*d]))
	}
}

// scalarKeyer loops Curve.Index over the existing neighbors.
type scalarKeyer struct {
	c    Curve
	d    int
	side uint32
	q    grid.Point
}

// scalarNeighborKeys fills keys with the 2d neighbor keys of p by calling
// c.Index on each stepped point, using q as scratch. Torus selects the
// periodic convention of NeighborKeysTorus.
func scalarNeighborKeys(c Curve, side uint32, p, q grid.Point, keys []uint64, torus bool) {
	copy(q, p)
	for dim := range p {
		keys[2*dim], keys[2*dim+1] = InvalidKey, InvalidKey
		if torus {
			if side > 2 {
				q[dim] = (p[dim] + side - 1) & (side - 1)
				keys[2*dim] = c.Index(q)
			}
			if side > 1 {
				q[dim] = (p[dim] + 1) & (side - 1)
				keys[2*dim+1] = c.Index(q)
			}
		} else {
			if p[dim] > 0 {
				q[dim] = p[dim] - 1
				keys[2*dim] = c.Index(q)
			}
			if p[dim]+1 < side {
				q[dim] = p[dim] + 1
				keys[2*dim+1] = c.Index(q)
			}
		}
		q[dim] = p[dim]
	}
}

func (sk *scalarKeyer) NeighborKeys(p grid.Point, base uint64, keys []uint64) {
	scalarNeighborKeys(sk.c, sk.side, p, sk.q, keys, false)
}

func (sk *scalarKeyer) NeighborKeysTorus(p grid.Point, base uint64, keys []uint64) {
	scalarNeighborKeys(sk.c, sk.side, p, sk.q, keys, true)
}

func (sk *scalarKeyer) NeighborKeysBlock(coords []uint32, bases []uint64, keys []uint64) {
	d := sk.d
	for j := range bases {
		sk.NeighborKeys(grid.Point(coords[j*d:(j+1)*d]), bases[j], keys[j*2*d:(j+1)*2*d])
	}
}

func (sk *scalarKeyer) NeighborKeysTorusBlock(coords []uint32, bases []uint64, keys []uint64) {
	d := sk.d
	for j := range bases {
		sk.NeighborKeysTorus(grid.Point(coords[j*d:(j+1)*d]), bases[j], keys[j*2*d:(j+1)*2*d])
	}
}

// ScalarOnly wraps c so that only the plain Curve methods remain visible:
// HasKernel reports false and every engine takes the legacy scalar path.
// The benchmark harness and the conformance kernel-sweep check use it as
// the pre-kernel reference implementation.
func ScalarOnly(c Curve) Curve { return scalarOnly{c} }

type scalarOnly struct{ c Curve }

func (s scalarOnly) Universe() *grid.Universe         { return s.c.Universe() }
func (s scalarOnly) Index(p grid.Point) uint64        { return s.c.Index(p) }
func (s scalarOnly) Point(idx uint64, dst grid.Point) { s.c.Point(idx, dst) }
func (s scalarOnly) Name() string                     { return s.c.Name() }
