// Package orthtree implements the P-Orth tree, the parallel orth-tree
// (quadtree in 2D, octree in 3D) contributed by the paper (§3).
//
// The tree partitions space at spatial medians into 2^D children per node.
// Unlike every prior parallel orth-tree, construction and batch updates use
// no space-filling curves: λ levels of the tree are built per round by
// sieving the points into the 2^(λD) buckets of an implicit tree skeleton
// (Alg. 1), which is conceptually an integer sort of Morton prefixes that
// never computes, stores or compares a code. Batch insertion (Alg. 2)
// sieves the update batch through the skeleton of the *existing* tree, and
// batch deletion is symmetric with subtree collapse.
//
// Structural invariant (canonical form): a node is interior iff its subtree
// holds more than LeafWrap points AND its region can still be split;
// otherwise it is a leaf. Degenerate regions (heavy duplicates) become
// oversized leaves, which bounds the height by O(log Δ) for aspect ratio Δ
// (§3.3). Because the invariant depends only on (universe, point multiset),
// the tree is history-independent modulo the order of points inside leaves
// — the property behind the paper's "quality does not degrade under
// updates" findings (§5.1.3).
package orthtree

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// Tree is a P-Orth tree. Not safe for concurrent mutation; queries are
// read-only and may run concurrently with each other.
type Tree struct {
	opts   core.Options
	nway   int                   // 2^dims children per interior node
	spread [][geom.MaxDims][]int // spread[λ] is grid.spread for λ levels
	root   *node
	// gen is the generation the tree stamps on its nodes and the only one
	// it writes in place; cowNodes and cowBytes total what updates copied
	// on first touch, from parallel branches (cow.go).
	gen                uint64
	cowNodes, cowBytes atomic.Uint64
}

var _ core.Index = (*Tree)(nil)

// node is either a leaf (kids == nil, points in pts) or an interior node
// (kids has length 2^dims; empty children are nil), stamped with the
// generation of the tree that created it (cow.go). bbox is the tight
// bounding box of the subtree's points — queries prune on it, while the
// *region* (the orthant assigned by the split hierarchy) is recomputed on
// the way down during structural operations and never stored.
type node struct {
	gen  uint64
	size int
	bbox geom.Box
	kids []*node
	pts  []geom.Point
}

func (nd *node) isLeaf() bool { return nd.kids == nil }

// New returns an empty P-Orth tree over the given options. The universe
// box fixes the split hierarchy; all points ever inserted must lie inside
// it.
func New(opts core.Options) *Tree {
	opts.Validate()
	if opts.Universe.IsEmpty() {
		panic("orthtree: Universe box required")
	}
	t := &Tree{opts: opts, nway: 1 << opts.Dims}
	for lam := 0; lam <= opts.SkeletonLevels; lam++ {
		t.spread = append(t.spread, spreadTables(lam, opts.Dims))
	}
	return t
}

// NewDefault returns a P-Orth tree with the paper's parameters for the
// given universe.
func NewDefault(dims int, universe geom.Box) *Tree {
	return New(core.DefaultOptions(dims, universe))
}

// Name implements core.Index.
func (t *Tree) Name() string { return "P-Orth" }

// Dims implements core.Index.
func (t *Tree) Dims() int { return t.opts.Dims }

// Size implements core.Index.
func (t *Tree) Size() int {
	if t.root == nil {
		return 0
	}
	return t.root.size
}

// Options returns the tree's configuration.
func (t *Tree) Options() core.Options { return t.opts }

// Build implements core.Index (Alg. 1). The input slice is not modified:
// the first sieve reads the points straight out of it, checking each
// against the universe as it goes.
func (t *Tree) Build(pts []geom.Point) {
	t.root = t.build(pts, make([]geom.Point, len(pts)), t.opts.Universe, true)
}

// BatchInsert implements core.Index (Alg. 2). The input slice is not
// modified.
func (t *Tree) BatchInsert(pts []geom.Point) {
	if len(pts) == 0 {
		return
	}
	t.checkInside(pts)
	work := make([]geom.Point, len(pts))
	copy(work, pts)
	buf := make([]geom.Point, len(pts))
	t.root = t.insert(t.root, work, buf, t.opts.Universe)
}

// BatchDelete implements core.Index (the symmetric deletion of §3.2):
// each requested point removes one matching occurrence.
func (t *Tree) BatchDelete(pts []geom.Point) {
	if len(pts) == 0 || t.root == nil {
		return
	}
	work := make([]geom.Point, len(pts))
	copy(work, pts)
	buf := make([]geom.Point, len(pts))
	t.root = t.delete(t.root, work, buf, t.opts.Universe)
}

// checkInside validates batch points against the universe. Points outside
// the universe would silently corrupt the split hierarchy, so this is a
// hard error.
func (t *Tree) checkInside(pts []geom.Point) {
	u := t.opts.Universe
	bad := parallel.Reduce(len(pts), 4096, false,
		func(i int) bool { return !u.Contains(pts[i], t.opts.Dims) },
		func(a, b bool) bool { return a || b })
	if bad {
		panic(errOutside)
	}
}

const errOutside = "orthtree: point outside universe box"

// seqCutoff is the subtree size below which recursion stops forking.
const seqCutoff = 2048

// BatchDiff implements core.Index: deletions apply before insertions, so
// a point that moves within one diff (same coordinates in both batches)
// nets out correctly. History independence makes the two-pass form
// canonical — the result is identical to any fused application.
func (t *Tree) BatchDiff(ins, del []geom.Point) {
	t.BatchDelete(del)
	t.BatchInsert(ins)
}
