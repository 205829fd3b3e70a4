package spactree

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sfc"
)

// Mode selects between the paper's SPaC-tree and the CPAM baseline.
type Mode int

const (
	// PartialOrder is the SPaC-tree (§4): leaves unsorted between joins, points alone.
	PartialOrder Mode = iota
	// TotalOrder is the CPAM baseline: sorted leaves that keep their codes.
	TotalOrder
)

// Tree is a SPaC-tree or CPAM tree over a Morton or Hilbert curve. It is a
// handle on a tree[S], S the stored point type New picks from the
// dimensionality — [2]int32 or [3]int32 — and has its methods.
type Tree struct{ body }

// body is the method set of a tree[S], for either S.
type body interface {
	core.Index
	core.Versioned
	core.Bounded
	Curve() sfc.Curve
	Validate() error
	LeafStats() (leaves, unsorted int)
	Height() int
}

var (
	_ core.Index     = (*Tree)(nil)
	_ core.Versioned = (*Tree)(nil)
	_ core.Bounded   = (*Tree)(nil)
)

// tree is a SPaC-tree or CPAM tree storing its points as S.
type tree[S geom.Packed] struct {
	opts  core.Options
	curve sfc.Curve
	mode  Mode
	order order[S] // how batches and Build sort their entries
	root  *node[S]
	// Handle holds the generation the tree stamps on the nodes it creates
	// and the only one whose nodes it writes in place, what its updates
	// copied, the pool they reuse, and its pinned views — or, on a view,
	// the pin it is (cow.go).
	core.Handle[node[S], S, scratch[S]]
}

// New returns an empty tree. The universe must fit the curve's precision
// (§4.3: integer coordinates only; 3D data must be scaled to 21 bits), and
// every point must fit int32, the range of a stored coordinate.
func New(curve sfc.Curve, mode Mode, opts core.Options) *Tree {
	opts.Validate()
	opts.RequireUniverse("spactree", 0, sfc.MaxCoord(curve, opts.Dims))
	if opts.Dims == 2 {
		return &Tree{&tree[[2]int32]{opts: opts, curve: curve, mode: mode, order: newOrder[[2]int32]()}}
	}
	return &Tree{&tree[[3]int32]{opts: opts, curve: curve, mode: mode, order: newOrder[[3]int32]()}}
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
func (t *tree[S]) Name() string {
	if t.mode == TotalOrder {
		return "CPAM-" + t.curve.String()
	}
	return "SPaC-" + t.curve.String()
}

// Dims implements core.Index.
func (t *tree[S]) Dims() int { return t.opts.Dims }

// Size implements core.Index.
func (t *tree[S]) Size() int { return sizeOf(t.root) }

// Curve returns the tree's space-filling curve.
func (t *tree[S]) Curve() sfc.Curve { return t.curve }

// Universe implements core.Bounded: the universe New was given.
func (t *tree[S]) Universe() geom.Box { return t.opts.Universe }

// Build implements core.Index in both modes alike: the points' entries,
// coded and sorted, are split into a perfectly balanced tree (Alg. 3
// lines 20-31). Alg. 3 sorts ⟨code, id⟩ pairs so that coordinates do not
// move through the sort and gathers them into leaves at the end; with a
// point packed into 8 bytes in 2-D an entry ⟨code, point⟩ is the same 16
// bytes as a pair, so sorting entries moves no more and leaves nothing to
// gather.
func (t *tree[S]) Build(pts []geom.Point) {
	t.MustWrite()
	t.root = t.buildSortedEnts(t.encodeAndSort(pts))
}

// BatchInsert implements core.Index (Alg. 4).
func (t *tree[S]) BatchInsert(pts []geom.Point) {
	if len(pts) == 0 {
		return
	}
	t.Begin()
	defer t.End()
	t.root = t.insertSorted(t.root, t.encodeBatch(pts, &t.Pool().X.ins))
}

// BatchDelete implements core.Index (multiset semantics, §4.2 last
// paragraph).
func (t *tree[S]) BatchDelete(pts []geom.Point) {
	if len(pts) == 0 || t.root == nil {
		return
	}
	t.Begin()
	defer t.End()
	t.root = t.deleteSorted(t.root, t.encodeDeletes(pts))
}

const seqCutoff = 2048

// BatchDiff implements core.Index: deletions apply before insertions.
// The insertions are encoded first, so one that does not fit int32 is
// refused before the deletions change the tree.
func (t *tree[S]) BatchDiff(ins, del []geom.Point) {
	t.Begin()
	defer t.End()
	var ie []Entry[S]
	if len(ins) > 0 {
		ie = t.encodeBatch(ins, &t.Pool().X.ins)
	}
	if len(del) > 0 && t.root != nil {
		t.root = t.deleteSorted(t.root, t.encodeDeletes(del))
	}
	if len(ie) > 0 {
		t.root = t.insertSorted(t.root, ie)
	}
}
