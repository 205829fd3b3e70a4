package core

import (
	"repro/internal/geom"
)

// BruteForce is the reference Index: a flat point list with linear-scan
// queries. Every tree package's tests cross-validate against it, and the
// root integration suite uses it as the oracle in randomized operation
// sequences. It is exact and obvious, not fast.
type BruteForce struct {
	dims int
	pts  []geom.Point
}

var _ Index = (*BruteForce)(nil)

// NewBruteForce returns an empty reference index.
func NewBruteForce(dims int) *BruteForce {
	if dims != 2 && dims != 3 {
		panic("core: BruteForce dims must be 2 or 3")
	}
	return &BruteForce{dims: dims}
}

// Name implements Index.
func (b *BruteForce) Name() string { return "BruteForce" }

// Dims implements Index.
func (b *BruteForce) Dims() int { return b.dims }

// Size implements Index.
func (b *BruteForce) Size() int { return len(b.pts) }

// Build implements Index.
func (b *BruteForce) Build(pts []geom.Point) {
	b.pts = append(b.pts[:0], pts...)
}

// BatchInsert implements Index.
func (b *BruteForce) BatchInsert(pts []geom.Point) {
	b.pts = append(b.pts, pts...)
}

// BatchDelete implements Index: removes one occurrence per requested point.
func (b *BruteForce) BatchDelete(pts []geom.Point) {
	b.pts = geom.RemoveEach(b.pts, pts)
}

// KNN implements Index.
func (b *BruteForce) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	h := geom.GetKNNHeap(k)
	for _, p := range b.pts {
		h.Push(p, geom.Dist2(p, q, b.dims))
	}
	dst = h.Append(dst)
	geom.PutKNNHeap(h)
	return dst
}

// RangeCount implements Index.
func (b *BruteForce) RangeCount(box geom.Box) int {
	n := 0
	for _, p := range b.pts {
		if box.Contains(p, b.dims) {
			n++
		}
	}
	return n
}

// RangeList implements Index.
func (b *BruteForce) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	for _, p := range b.pts {
		if box.Contains(p, b.dims) {
			dst = append(dst, p)
		}
	}
	return dst
}

// Points returns the stored points (test helper; do not mutate).
func (b *BruteForce) Points() []geom.Point { return b.pts }

// BatchDiff implements Index.
func (b *BruteForce) BatchDiff(ins, del []geom.Point) {
	b.BatchDelete(del)
	b.BatchInsert(ins)
}
