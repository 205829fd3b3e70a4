package spactree

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/sfc"
	"repro/internal/workload"
)

// firstLeaf returns the leftmost leaf under nd.
func firstLeaf[S geom.Packed](nd *node[S]) *node[S] {
	for !nd.isLeaf() {
		nd = nd.left
	}
	return nd
}

// refit recomputes the bounding boxes under nd, so that a test's edit
// breaks nothing but what it means to.
func refit[S geom.Packed](in *tree[S], nd *node[S]) {
	if nd == nil {
		return
	}
	if nd.isLeaf() {
		nd.bbox = geom.PackedBounds(nd.points())
		return
	}
	refit(in, nd.left)
	refit(in, nd.right)
	nd.bbox = in.interiorBBox(nd.left, nd.pivot, nd.right)
}

// TestValidateRecomputesCodes: leaves store no codes the check could
// trust, so Validate recomputes them — and fails when two points of a
// sorted leaf are swapped, when a leaf point leaves the range its
// neighbouring pivots bound, when a pivot's code is not its point's, and
// when a CPAM leaf's stored code is not.
func TestValidateRecomputesCodes(t *testing.T) {
	pts := workload.GenUniform(5000, 2, testSide, 3)
	for _, tc := range []struct {
		name    string
		mk      func() *Tree
		corrupt func(in *tree[[2]int32])
	}{
		{"swapped points in a sorted leaf", func() *Tree { return NewSPaC(sfc.Hilbert, 2, universe()) }, func(in *tree[[2]int32]) {
			l := firstLeaf(in.root)
			l.pts[0], l.pts[1] = l.pts[1], l.pts[0]
		}},
		{"swapped points in a CPAM leaf", func() *Tree { return NewCPAM(sfc.Hilbert, 2, universe()) }, func(in *tree[[2]int32]) {
			l := firstLeaf(in.root)
			l.pts[0], l.pts[1] = l.pts[1], l.pts[0]
			l.pts[l.size], l.pts[l.size+1] = l.pts[l.size+1], l.pts[l.size]
		}},
		{"leaf point past its pivot", func() *Tree { return NewSPaC(sfc.Hilbert, 2, universe()) }, func(in *tree[[2]int32]) {
			l := firstLeaf(in.root.right)
			l.sorted = false
			l.pts[0] = firstLeaf(in.root).pts[0]
			refit(in, in.root)
		}},
		{"stale pivot code", func() *Tree { return NewSPaC(sfc.Morton, 2, universe()) }, func(in *tree[[2]int32]) {
			in.root.pivot.Code++
		}},
		{"stale CPAM leaf code", func() *Tree { return NewCPAM(sfc.Morton, 2, universe()) }, func(in *tree[[2]int32]) {
			l := firstLeaf(in.root)
			l.pts[l.size] = codeSlot[[2]int32](slotCode(l.pts[l.size]) + 1)
		}},
	} {
		tr := tc.mk()
		tr.Build(pts)
		validateOrFail(t, tr)
		tc.corrupt(in2(tr))
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: %s passed Validate", tr.Name(), tc.name)
		} else {
			t.Logf("%s: %s: %v", tr.Name(), tc.name, err)
		}
	}
}
