package curve

import (
	"repro/internal/bits"
	"repro/internal/grid"
)

// Hilbert is the d-dimensional Hilbert curve, implemented with Skilling's
// transpose algorithm (J. Skilling, "Programming the Hilbert curve", AIP
// Conf. Proc. 707, 2004). The curve is unit-step (consecutive positions are
// nearest neighbors) and non-self-intersecting in every dimension.
//
// The paper leaves the average NN-stretch of the Hilbert curve as an open
// question (§VI); the experiment harness measures it (experiment
// "ext-hilbert") and finds it in the same Θ(n^(1−1/d)) regime as the Z
// curve.
type Hilbert struct {
	u   *grid.Universe
	tab *hilbertTable // derived state table, nil when unavailable
}

// NewHilbert returns the Hilbert curve over u.
func NewHilbert(u *grid.Universe) *Hilbert {
	return &Hilbert{u: u, tab: hilbertTableFor(u.D())}
}

// Universe implements Curve.
func (h *Hilbert) Universe() *grid.Universe { return h.u }

// Name implements Curve.
func (h *Hilbert) Name() string { return "hilbert" }

// Index implements Curve: it converts the axes to Skilling's transposed
// Hilbert form in a scratch copy and interleaves the transpose bits into the
// final index (most significant level first, matching the bits package
// convention).
func (h *Hilbert) Index(p grid.Point) uint64 {
	d, k := h.u.D(), h.u.K()
	if k == 0 {
		return 0
	}
	var buf [16]uint32
	var x []uint32
	if d <= len(buf) {
		x = buf[:d]
	} else {
		x = make([]uint32, d)
	}
	copy(x, p)
	axesToTranspose(x, k)
	return bits.Interleave(x, k)
}

// Point implements Curve.
func (h *Hilbert) Point(idx uint64, dst grid.Point) {
	k := h.u.K()
	if k == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	bits.Deinterleave(idx, k, dst)
	transposeToAxes(dst, k)
}

// IndexBatch implements Batcher: LUT Morton spread of the coordinates,
// then the state-machine walk, restarted for each point at the highest
// level where its Morton key differs from the previous point's (see
// hilbertWalk). Falls back to the scalar method when the state table is
// unavailable.
func (h *Hilbert) IndexBatch(coords []uint32, dst []uint64) {
	d, k := h.u.D(), h.u.K()
	tab := h.tab
	if tab == nil {
		for i := range dst {
			dst[i] = h.Index(grid.Point(coords[i*d : (i+1)*d : (i+1)*d]))
		}
		return
	}
	if k == 0 {
		clear(dst)
		return
	}
	h.mortonKeys(coords, dst, 1)
	w := newWalk(k)
	for i, mkey := range dst {
		dst[i] = tab.walk(&w, mkey)
	}
}

// mortonKeys writes the Morton key of point i of coords to dst[i*stride].
func (h *Hilbert) mortonKeys(coords []uint32, dst []uint64, stride int) {
	d, k := h.u.D(), h.u.K()
	n := len(coords) / d
	switch {
	case d == 2:
		for i := 0; i < n; i++ {
			dst[i*stride] = bits.Interleave2LUT(coords[2*i], coords[2*i+1])
		}
	case d == 3 && k <= 20:
		for i := 0; i < n; i++ {
			dst[i*stride] = bits.Interleave3LUT(coords[3*i], coords[3*i+1], coords[3*i+2])
		}
	default:
		for i := 0; i < n; i++ {
			dst[i*stride] = bits.Interleave(grid.Point(coords[i*d:(i+1)*d:(i+1)*d]), k)
		}
	}
}

// PointBatch implements Batcher: state-machine walk back to the Morton key,
// then a LUT compaction into coordinates.
func (h *Hilbert) PointBatch(indices []uint64, dst []uint32) {
	d, k := h.u.D(), h.u.K()
	tab := h.tab
	if tab == nil {
		for i, idx := range indices {
			h.Point(idx, grid.Point(dst[i*d:(i+1)*d:(i+1)*d]))
		}
		return
	}
	switch {
	case d == 2:
		for i, idx := range indices {
			dst[2*i], dst[2*i+1] = bits.Deinterleave2LUT(tab.decode(idx, k))
		}
	case d == 3 && k <= 20:
		for i, idx := range indices {
			dst[3*i], dst[3*i+1], dst[3*i+2] = bits.Deinterleave3LUT(tab.decode(idx, k))
		}
	default:
		for i, idx := range indices {
			bits.Deinterleave(tab.decode(idx, k), k, grid.Point(dst[i*d:(i+1)*d:(i+1)*d]))
		}
	}
}

// NeighborKeys implements NeighborKeyer. A neighbor's Morton key differs
// from the cell's only in the levels a ±1 step carries through, so its
// Hilbert key keeps the cell's digits above those levels and walks the rest
// from the cell's saved state (see hilbertTable.neighbor). The receiver
// carries no mutable state, so the keyer is safe to share across
// goroutines.
func (h *Hilbert) NeighborKeys(p grid.Point, base uint64, keys []uint64) {
	bases := [1]uint64{base}
	h.neighborKeysBlock(p, bases[:], keys, false)
}

// NeighborKeysTorus implements NeighborKeyer; a wrap side−1 ↔ 0 is the
// step that changes every level.
func (h *Hilbert) NeighborKeysTorus(p grid.Point, base uint64, keys []uint64) {
	bases := [1]uint64{base}
	h.neighborKeysBlock(p, bases[:], keys, true)
}

// NeighborKeysBlock implements NeighborKeyer.
func (h *Hilbert) NeighborKeysBlock(coords []uint32, bases []uint64, keys []uint64) {
	h.neighborKeysBlock(coords, bases, keys, false)
}

// NeighborKeysTorusBlock implements NeighborKeyer.
func (h *Hilbert) NeighborKeysTorusBlock(coords []uint32, bases []uint64, keys []uint64) {
	h.neighborKeysBlock(coords, bases, keys, true)
}

// neighborKeysBlock walks the block's cells in order, each from the prefix
// state its predecessor left, and derives the 2d neighbor keys of each from
// its own saved states. A cell's Morton key is staged in the first slot of
// its output row until the row is written.
func (h *Hilbert) neighborKeysBlock(coords []uint32, bases []uint64, keys []uint64, torus bool) {
	d, k, side := h.u.D(), h.u.K(), h.u.Side()
	nd := 2 * d
	tab := h.tab
	if tab == nil {
		q := h.u.NewPoint()
		for j := range bases {
			scalarNeighborKeys(h, side, grid.Point(coords[j*d:(j+1)*d]), q, keys[j*nd:(j+1)*nd], torus)
		}
		return
	}
	if k == 0 {
		for i := range keys[:len(bases)*nd] {
			keys[i] = InvalidKey
		}
		return
	}
	h.mortonKeys(coords[:len(bases)*d], keys, nd)
	w := newWalk(k)
	mask := side - 1
	for j, base := range bases {
		row := keys[j*nd : (j+1)*nd : (j+1)*nd]
		tab.walk(&w, row[0])
		p := coords[j*d : (j+1)*d : (j+1)*d]
		for dim, c := range p {
			lo, hi := InvalidKey, InvalidKey
			if torus {
				if side > 2 {
					lo = tab.neighbor(&w, base, dim, c^((c-1)&mask))
				}
				if side > 1 {
					hi = tab.neighbor(&w, base, dim, c^((c+1)&mask))
				}
			} else {
				if c > 0 {
					lo = tab.neighbor(&w, base, dim, c^(c-1))
				}
				if c < mask {
					hi = tab.neighbor(&w, base, dim, c^(c+1))
				}
			}
			row[2*dim], row[2*dim+1] = lo, hi
		}
	}
}

var (
	_ Curve         = (*Hilbert)(nil)
	_ Batcher       = (*Hilbert)(nil)
	_ NeighborKeyer = (*Hilbert)(nil)
)

// axesToTranspose converts grid coordinates (k bits each) into Skilling's
// transposed Hilbert representation, in place.
func axesToTranspose(x []uint32, k int) {
	n := len(x)
	m := uint32(1) << uint(k-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose, in place.
func transposeToAxes(x []uint32, k int) {
	n := len(x)
	top := uint32(2) << uint(k-1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != top; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t = (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}
