package core

import "repro/internal/geom"

// NullIndex is a zero-cost Index: batch operations only track the stored
// count and queries return nothing. Wrapping it isolates a serving
// layer's own behavior — the allocation-regression guards use it to
// measure the Collection/Sharded machinery without any real tree's
// update cost.
type NullIndex struct {
	dims int
	n    int
}

var _ Index = (*NullIndex)(nil)

// NewNull returns an empty NullIndex reporting the given dimensionality.
func NewNull(dims int) *NullIndex { return &NullIndex{dims: dims} }

func (x *NullIndex) Name() string                    { return "Null" }
func (x *NullIndex) Dims() int                       { return x.dims }
func (x *NullIndex) Build(pts []geom.Point)          { x.n = len(pts) }
func (x *NullIndex) BatchInsert(pts []geom.Point)    { x.n += len(pts) }
func (x *NullIndex) BatchDelete(pts []geom.Point)    { x.n -= len(pts) }
func (x *NullIndex) BatchDiff(ins, del []geom.Point) { x.n += len(ins) - len(del) }
func (x *NullIndex) Size() int                       { return x.n }
func (x *NullIndex) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	return dst
}
func (x *NullIndex) RangeCount(box geom.Box) int { return 0 }
func (x *NullIndex) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	return dst
}
