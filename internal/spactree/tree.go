package spactree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sfc"
)

// Mode selects between the paper's SPaC-tree and the CPAM baseline.
type Mode int

const (
	// PartialOrder is the SPaC-tree (§4): unsorted leaves, HybridSort.
	PartialOrder Mode = iota
	// TotalOrder is the CPAM baseline: sorted leaves, precomputed codes.
	TotalOrder
)

// Tree is a SPaC-tree or CPAM tree over a Morton or Hilbert curve.
type Tree struct {
	opts  core.Options
	curve sfc.Curve
	mode  Mode
	root  *node
	// gen is the generation the tree stamps on the nodes it creates and
	// the only one whose nodes it writes in place (cow.go).
	gen uint64
	// cowNodes and cowBytes total what updates copied on first touch;
	// atomics only because a metrics scrape may read them mid-update.
	cowNodes, cowBytes atomic.Uint64
}

var _ core.Index = (*Tree)(nil)

// New returns an empty tree. The universe must fit the curve's precision
// (§4.3: integer coordinates only; 3D data must be scaled to 21 bits).
func New(curve sfc.Curve, mode Mode, opts core.Options) *Tree {
	opts.Validate()
	maxc := sfc.MaxCoord(curve, opts.Dims)
	u := opts.Universe
	for d := 0; d < opts.Dims; d++ {
		if u.Lo[d] < 0 || u.Hi[d] > maxc {
			panic(fmt.Sprintf("spactree: universe exceeds %v-curve precision (max coord %d)", curve, maxc))
		}
	}
	return &Tree{opts: opts, curve: curve, mode: mode}
}

// NewSPaC returns a SPaC-tree with the paper's parameters (§C: leaf wrap
// 40, weight-balance α = 0.2).
func NewSPaC(curve sfc.Curve, dims int, universe geom.Box) *Tree {
	opts := core.DefaultOptions(dims, universe)
	opts.LeafWrap = 40
	opts.Alpha = 0.2
	return New(curve, PartialOrder, opts)
}

// NewCPAM returns the CPAM baseline with the same parameters.
func NewCPAM(curve sfc.Curve, dims int, universe geom.Box) *Tree {
	opts := core.DefaultOptions(dims, universe)
	opts.LeafWrap = 40
	opts.Alpha = 0.2
	return New(curve, TotalOrder, opts)
}

// Name implements core.Index, matching the paper's table labels.
func (t *Tree) Name() string {
	if t.mode == TotalOrder {
		return "CPAM-" + t.curve.String()
	}
	return "SPaC-" + t.curve.String()
}

// Dims implements core.Index.
func (t *Tree) Dims() int { return t.opts.Dims }

// Size implements core.Index.
func (t *Tree) Size() int { return sizeOf(t.root) }

// Curve returns the tree's space-filling curve.
func (t *Tree) Curve() sfc.Curve { return t.curve }

// Build implements core.Index: Alg. 3 for SPaC mode, the plain
// precompute-sort-build for CPAM mode.
func (t *Tree) Build(pts []geom.Point) {
	if t.mode == PartialOrder {
		t.root = t.buildHybrid(pts)
	} else {
		t.root = t.buildPlain(pts)
	}
}

// BatchInsert implements core.Index (Alg. 4).
func (t *Tree) BatchInsert(pts []geom.Point) {
	if len(pts) == 0 {
		return
	}
	var c cow
	t.root = t.insertSorted(t.root, t.encodeAndSort(pts), &c)
	t.note(c)
}

// BatchDelete implements core.Index (multiset semantics, §4.2 last
// paragraph).
func (t *Tree) BatchDelete(pts []geom.Point) {
	if len(pts) == 0 || t.root == nil {
		return
	}
	var c cow
	t.root = t.deleteSorted(t.root, t.encodeAndSort(pts), &c)
	t.note(c)
}

const seqCutoff = 2048

// BatchDiff implements core.Index: deletions apply before insertions.
// Both halves share one pass of code computation and sorting.
func (t *Tree) BatchDiff(ins, del []geom.Point) {
	var c cow
	if len(del) > 0 && t.root != nil {
		t.root = t.deleteSorted(t.root, t.encodeAndSort(del), &c)
	}
	if len(ins) > 0 {
		t.root = t.insertSorted(t.root, t.encodeAndSort(ins), &c)
	}
	t.note(c)
}
