package geom

import "math"

// Packed is the form in which the SPaC family and P-Orth store a point:
// its used coordinates as int32, two in 2-D and three in 3-D, so that a
// stored 2-D point takes 8 bytes where a Point takes 24. A tree picks its
// Packed type once, from the dimensionality, when it is made; it narrows
// each Point on the way in (Pack) and widens it on the way out (Unpack).
// Every comparison and distance a query computes stays int64, against the
// caller's Point and Box, so narrowing costs no exactness as long as the
// tree's universe lies inside int32 and its squared diagonal fits int64,
// which its constructor checks (core.Options.RequireUniverse).
type Packed interface{ [2]int32 | [3]int32 }

// Packable reports whether the first dims coordinates of p fit int32, the
// range of a stored coordinate.
func Packable(p Point, dims int) bool {
	for d := 0; d < dims; d++ {
		if p[d] != int64(int32(p[d])) {
			return false
		}
	}
	return true
}

// Pack narrows p to its stored form. p must be Packable.
func Pack[S Packed](p Point) (s S) {
	for d := range len(s) {
		s[d] = int32(p[d])
	}
	return s
}

// Unpack widens a stored point back to a Point (Z zero in 2-D).
func Unpack[S Packed](s S) (p Point) {
	for d := range len(s) {
		p[d] = int64(s[d])
	}
	return p
}

// PackedDist2 is Dist2 between a stored point and q, its per-axis terms
// written out: k-NN leaf scans run it once per stored point.
func PackedDist2[S Packed](s S, q *Point) int64 {
	dx, dy := int64(s[0])-q[0], int64(s[1])-q[1]
	d2 := dx*dx + dy*dy
	if z := len(s) - 1; z == 2 {
		dz := int64(s[z]) - q[2]
		d2 += dz * dz
	}
	return d2
}

// PackedIn reports whether the stored point s lies inside box.
func PackedIn[S Packed](box *Box, s S) bool {
	for d := range len(s) {
		if c := int64(s[d]); c < box.Lo[d] || c > box.Hi[d] {
			return false
		}
	}
	return true
}

// ComparePacked orders stored points lexicographically, as a three-way
// comparison.
func ComparePacked[S Packed](a, b S) int {
	for d := range len(a) {
		switch {
		case a[d] < b[d]:
			return -1
		case a[d] > b[d]:
			return 1
		}
	}
	return 0
}

// PackedBox is a Box over stored points: the tight bounding box that the
// SPaC family and P-Orth keep in every node.
type PackedBox[S Packed] struct {
	Lo, Hi S
}

// EmptyPacked returns the empty PackedBox, the identity of Extend and
// Union: Lo at the int32 maximum and Hi at the minimum, the int32 form of
// EmptyBox's ±2⁶² sentinel.
func EmptyPacked[S Packed]() (b PackedBox[S]) {
	for d := range len(b.Lo) {
		b.Lo[d], b.Hi[d] = math.MaxInt32, math.MinInt32
	}
	return b
}

// PackedBounds returns the tight bounding box of stored points.
func PackedBounds[S Packed](pts []S) PackedBox[S] {
	b := EmptyPacked[S]()
	for _, s := range pts {
		b = b.Extend(s)
	}
	return b
}

// Extend grows b to include s.
func (b PackedBox[S]) Extend(s S) PackedBox[S] {
	for d := range len(s) {
		b.Lo[d] = min(b.Lo[d], s[d])
		b.Hi[d] = max(b.Hi[d], s[d])
	}
	return b
}

// Union returns the smallest box enclosing b and o.
func (b PackedBox[S]) Union(o PackedBox[S]) PackedBox[S] {
	for d := range len(b.Lo) {
		b.Lo[d] = min(b.Lo[d], o.Lo[d])
		b.Hi[d] = max(b.Hi[d], o.Hi[d])
	}
	return b
}

// String renders the box for debugging.
func (b PackedBox[S]) String() string {
	return Box{Lo: Unpack(b.Lo), Hi: Unpack(b.Hi)}.String()
}

// Dist2 is Box.Dist2 from q to b, written out per axis like PackedDist2.
func (b *PackedBox[S]) Dist2(q *Point) int64 {
	dx := max(int64(b.Lo[0])-q[0], q[0]-int64(b.Hi[0]), 0)
	dy := max(int64(b.Lo[1])-q[1], q[1]-int64(b.Hi[1]), 0)
	d2 := dx*dx + dy*dy
	if z := len(b.Lo) - 1; z == 2 {
		dz := max(int64(b.Lo[z])-q[2], q[2]-int64(b.Hi[z]), 0)
		d2 += dz * dz
	}
	return d2
}

// Meets reports whether b and box share at least one point.
func (b *PackedBox[S]) Meets(box *Box) bool {
	for d := range len(b.Lo) {
		if int64(b.Lo[d]) > box.Hi[d] || int64(b.Hi[d]) < box.Lo[d] {
			return false
		}
	}
	return true
}

// Inside reports whether b lies entirely inside box.
func (b *PackedBox[S]) Inside(box *Box) bool {
	for d := range len(b.Lo) {
		if int64(b.Lo[d]) < box.Lo[d] || int64(b.Hi[d]) > box.Hi[d] {
			return false
		}
	}
	return true
}
