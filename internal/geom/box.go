package geom

import "fmt"

// Box is a closed axis-aligned box [Lo, Hi] (both corners inclusive): a
// query's box, a tree's universe, and the box the baseline trees store per
// node — the tight bounding box of the points below it (for pruning) or
// the region assigned to the subtree. The SPaC family and P-Orth store
// their nodes' boxes as a PackedBox, and recompute regions on the way down.
type Box struct {
	Lo, Hi Point
}

// EmptyBox returns the canonical empty box for the given dimensionality:
// Lo > Hi in every used dimension (so Extend/Union treat it as the identity
// element) and zero in unused slots (so 2D boxes compare with ==).
func EmptyBox(dims int) Box {
	const big = int64(1) << 62
	var b Box
	for d := 0; d < dims; d++ {
		b.Lo[d], b.Hi[d] = big, -big
	}
	return b
}

// UniverseBox returns the box [0, side]^dims with zero extent in unused
// dimensions, the conventional root region for the paper's workloads.
func UniverseBox(dims int, side Coord) Box {
	b := Box{}
	for d := 0; d < dims; d++ {
		b.Hi[d] = side
	}
	return b
}

// BoxOf returns the box with the two corners lo and hi.
func BoxOf(lo, hi Point) Box { return Box{Lo: lo, Hi: hi} }

// String renders the box for debugging.
func (b Box) String() string { return fmt.Sprintf("[%v..%v]", b.Lo, b.Hi) }

// IsEmpty reports whether the box contains no point (Lo > Hi somewhere).
func (b Box) IsEmpty() bool {
	for d := 0; d < MaxDims; d++ {
		if b.Lo[d] > b.Hi[d] {
			return true
		}
	}
	return false
}

// Contains reports whether p lies inside b (first dims dimensions).
func (b Box) Contains(p Point, dims int) bool {
	for d := 0; d < dims; d++ {
		if p[d] < b.Lo[d] || p[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o is entirely inside b.
func (b Box) ContainsBox(o Box, dims int) bool {
	for d := 0; d < dims; d++ {
		if o.Lo[d] < b.Lo[d] || o.Hi[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o share at least one point.
func (b Box) Intersects(o Box, dims int) bool {
	for d := 0; d < dims; d++ {
		if b.Lo[d] > o.Hi[d] || b.Hi[d] < o.Lo[d] {
			return false
		}
	}
	return true
}

// Extend grows b to include p and returns the result.
func (b Box) Extend(p Point, dims int) Box {
	for d := 0; d < dims; d++ {
		if p[d] < b.Lo[d] {
			b.Lo[d] = p[d]
		}
		if p[d] > b.Hi[d] {
			b.Hi[d] = p[d]
		}
	}
	return b
}

// Union returns the smallest box enclosing both b and o. Empty boxes are
// identity elements.
func (b Box) Union(o Box, dims int) Box {
	for d := 0; d < dims; d++ {
		if o.Lo[d] < b.Lo[d] {
			b.Lo[d] = o.Lo[d]
		}
		if o.Hi[d] > b.Hi[d] {
			b.Hi[d] = o.Hi[d]
		}
	}
	return b
}

// BoundingBox returns the tight bounding box of pts.
func BoundingBox(pts []Point, dims int) Box {
	b := EmptyBox(dims)
	for _, p := range pts {
		b = b.Extend(p, dims)
	}
	return b
}

// Dist2 returns the exact squared distance from p to the box (0 if inside).
// This is the pruning bound used by every kNN search in the library.
func (b Box) Dist2(p Point, dims int) int64 {
	var s int64
	for d := 0; d < dims; d++ {
		var dx int64
		if p[d] < b.Lo[d] {
			dx = b.Lo[d] - p[d]
		} else if p[d] > b.Hi[d] {
			dx = p[d] - b.Hi[d]
		}
		s += dx * dx
	}
	return s
}

// Mid returns the midpoint of the box along dimension d, rounded toward Lo.
// Orth-trees split at this spatial median.
func (b Box) Mid(d int) Coord {
	// Average without overflow: coordinates may be near +/-2^62 for the
	// canonical empty box, so use the classic overflow-free midpoint.
	lo, hi := b.Lo[d], b.Hi[d]
	return lo + (hi-lo)/2
}

// Side returns the extent of the box along dimension d.
func (b Box) Side(d int) Coord { return b.Hi[d] - b.Lo[d] }

// WidestDim returns the dimension with the largest extent (first dims
// dimensions considered). kd-trees split along this dimension.
func (b Box) WidestDim(dims int) int {
	best, bestSide := 0, Coord(-1)
	for d := 0; d < dims; d++ {
		if s := b.Side(d); s > bestSide {
			best, bestSide = d, s
		}
	}
	return best
}

// Splittable reports whether the box can still be halved along some
// dimension, i.e. some side has extent >= 1. Orth-trees stop splitting
// degenerate regions (duplicate-heavy inputs) to bound the tree height by
// O(log Delta), Delta the aspect ratio (paper §3.3).
func (b Box) Splittable(dims int) bool {
	for d := 0; d < dims; d++ {
		if b.Side(d) >= 1 {
			return true
		}
	}
	return false
}

// Quadrant returns the orthant index of p relative to the midpoints of b:
// bit d is set iff p[d] > mid_d. This fixes the child ordering of every
// orth-tree node (2^dims children).
func (b Box) Quadrant(p Point, dims int) int {
	idx := 0
	for d := 0; d < dims; d++ {
		if p[d] > b.Mid(d) {
			idx |= 1 << d
		}
	}
	return idx
}

// Child returns the sub-box of b for orthant idx (inverse of Quadrant):
// dimension d spans [Lo, mid] when bit d is clear and (mid, Hi] — stored as
// [mid+1, Hi] — when set. Children therefore partition b exactly.
func (b Box) Child(idx int, dims int) Box {
	c := b
	for d := 0; d < dims; d++ {
		mid := b.Mid(d)
		if idx&(1<<d) != 0 {
			c.Lo[d] = mid + 1
		} else {
			c.Hi[d] = mid
		}
	}
	return c
}
