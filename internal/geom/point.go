// Package geom provides the geometric primitives shared by every spatial
// index in Ψ-Lib/Go: points with integer coordinates in 2 or 3 dimensions,
// axis-aligned bounding boxes, exact squared Euclidean distances, and a
// bounded max-heap used by k-nearest-neighbor searches.
//
// Coordinates are int64, matching the paper's evaluation setup (64-bit
// integers in [0, 1e9]); the SPaC family and P-Orth store them as int32
// (Packed). All distance arithmetic is exact while the squared sum fits
// int64, so those trees also refuse a universe whose squared diagonal
// does not (core.Options.RequireUniverse): [0, 2³¹−1]² passes
// (2·(2³¹−1)² < 2⁶³) and all of int32 in 2-D does not; in 3-D a cube from
// the origin may reach 1 753 413 056 = ⌊√((2⁶³−1)/3)⌋, and the curve-keyed
// trees' [0, 2²¹−1]³ lies far inside. The other indexes store Points as
// they come and leave the bound to the caller.
package geom

import "fmt"

// Coord is a point coordinate. The paper evaluates on 64-bit integer
// coordinates; float inputs should be scaled and rounded by the caller.
type Coord = int64

// MaxDims is the largest supported dimensionality. The paper studies D = 2
// and D = 3; the array is fixed-size so Point is a flat value type with no
// indirection (critical for the cache behaviour the paper optimizes for).
const MaxDims = 3

// Point is a point in 2- or 3-dimensional space. For 2D data the Z slot
// (index 2) must be zero so that point equality is plain value equality.
type Point [MaxDims]Coord

// Pt2 returns a 2D point.
func Pt2(x, y Coord) Point { return Point{x, y, 0} }

// Pt3 returns a 3D point.
func Pt3(x, y, z Coord) Point { return Point{x, y, z} }

// String renders the point for debugging.
func (p Point) String() string {
	return fmt.Sprintf("(%d,%d,%d)", p[0], p[1], p[2])
}

// Dist2 returns the exact squared Euclidean distance between p and q over
// the first dims dimensions.
func Dist2(p, q Point, dims int) int64 {
	var s int64
	for d := 0; d < dims; d++ {
		dx := p[d] - q[d]
		s += dx * dx
	}
	return s
}

// Less orders points lexicographically over the first dims dimensions.
// It is used by tests and by deterministic tie-breaking, not by any index
// invariant.
func Less(p, q Point, dims int) bool {
	for d := 0; d < dims; d++ {
		if p[d] != q[d] {
			return p[d] < q[d]
		}
	}
	return false
}

// Equal reports whether p and q agree on the first dims dimensions.
func Equal(p, q Point, dims int) bool {
	for d := 0; d < dims; d++ {
		if p[d] != q[d] {
			return false
		}
	}
	return true
}
