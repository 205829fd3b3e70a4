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
//
// Points are stored as int32 coordinates with no Z in 2-D (geom.Packed):
// a Tree is a handle on a tree[S] whose S New picks from the
// dimensionality, so a stored 2-D point takes 8 bytes and a node 80.
package orthtree

import (
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// Tree is a P-Orth tree. Not safe for concurrent mutation; queries are
// read-only and may run concurrently with each other. It is a handle on a
// tree[S], S the stored point type New picks from the dimensionality —
// [2]int32 or [3]int32 — and has its methods.
type Tree struct{ body }

// body is the method set of a tree[S], for either S.
type body interface {
	core.Index
	core.Versioned
	core.Bounded
	Options() core.Options
	Validate() error
	Height() int
	TreeStats() Stats
}

var (
	_ core.Index     = (*Tree)(nil)
	_ core.Versioned = (*Tree)(nil)
	_ core.Bounded   = (*Tree)(nil)
)

// tree is a P-Orth tree storing its points as S.
type tree[S geom.Packed] struct {
	opts   core.Options
	nway   int                   // 2^dims children per interior node
	spread [][geom.MaxDims][]int // spread[λ] is grid.spread for λ levels
	root   *node[S]
	// Handle holds the generation the tree stamps on its nodes and the
	// only one it writes in place, what its updates copied, the pool they
	// reuse, and its pinned views — or, on a view, the generation it was
	// pinned at (cow.go).
	core.Handle[node[S], S, scratch[S]]
}

// node is either a leaf (kids == nil, points in pts) or an interior node
// (kids has length 2^dims; empty children are nil), stamped with the
// generation of the tree that created it (cow.go). bbox is the tight
// bounding box of the subtree's points — queries prune on it, while the
// *region* (the orthant assigned by the split hierarchy) is recomputed on
// the way down during structural operations and never stored. A leaf's
// points sit in a block of its own, sized as core.Recycler's Grow and Fit
// say.
type node[S geom.Packed] struct {
	gen  uint64
	size int
	bbox geom.PackedBox[S]
	kids []*node[S]
	pts  []S
}

func (nd *node[S]) isLeaf() bool { return nd.kids == nil }

// New returns an empty P-Orth tree over the given options. The universe
// box fixes the split hierarchy; all points ever inserted must lie inside
// it, and it must lie inside int32, the range of a stored coordinate, with
// a squared diagonal that fits int64 (core.Options.RequireUniverse).
func New(opts core.Options) *Tree {
	opts.Validate()
	if opts.Universe.IsEmpty() {
		panic("orthtree: Universe box required")
	}
	opts.RequireUniverse("orthtree", math.MinInt32, math.MaxInt32)
	if opts.Dims == 2 {
		return &Tree{newTree[[2]int32](opts)}
	}
	return &Tree{newTree[[3]int32](opts)}
}

func newTree[S geom.Packed](opts core.Options) *tree[S] {
	t := &tree[S]{opts: opts, nway: 1 << opts.Dims}
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
func (t *tree[S]) Name() string { return "P-Orth" }

// Dims implements core.Index.
func (t *tree[S]) Dims() int { return t.opts.Dims }

// Size implements core.Index.
func (t *tree[S]) Size() int {
	if t.root == nil {
		return 0
	}
	return t.root.size
}

// Options returns the tree's configuration.
func (t *tree[S]) Options() core.Options { return t.opts }

// Universe implements core.Bounded: every point the tree holds lies in it.
func (t *tree[S]) Universe() geom.Box { return t.opts.Universe }

// Build implements core.Index (Alg. 1). The input slice is not modified:
// the points are narrowed into a slice of the tree's own, checked against
// the universe as they go, and the sieve rounds ping-pong between it and
// one more of the same length.
func (t *tree[S]) Build(pts []geom.Point) {
	t.MustWrite()
	work := t.pack(pts, make([]S, len(pts)))
	t.root = t.build(work, make([]S, len(work)), t.opts.Universe)
}

// BatchInsert implements core.Index (Alg. 2). The input slice is not
// modified.
func (t *tree[S]) BatchInsert(pts []geom.Point) {
	t.Begin()
	defer t.End()
	t.insertPacked(t.pack(pts, core.Scratch(&t.Pool().X.ins, len(pts))))
}

// insertPacked inserts a narrowed batch, in an update begin started.
func (t *tree[S]) insertPacked(work []S) {
	if len(work) > 0 {
		t.root = t.insert(t.root, work, core.Scratch(&t.Pool().X.buf, len(work)), t.opts.Universe)
	}
}

// BatchDelete implements core.Index (the symmetric deletion of §3.2):
// each requested point removes one matching occurrence. A point outside
// the universe matches none and is dropped before the batch is narrowed.
func (t *tree[S]) BatchDelete(pts []geom.Point) {
	if len(pts) == 0 || t.root == nil {
		return
	}
	t.Begin()
	defer t.End()
	t.deletePacked(pts)
}

// deletePacked is BatchDelete in an update begin started.
func (t *tree[S]) deletePacked(pts []geom.Point) {
	u, dims := t.opts.Universe, t.opts.Dims
	pts = geom.Keep(pts, func(p geom.Point) bool { return u.Contains(p, dims) })
	work := t.pack(pts, core.Scratch(&t.Pool().X.del, len(pts)))
	if len(work) > 0 {
		t.root = t.delete(t.root, work, core.Scratch(&t.Pool().X.buf, len(work)), u)
	}
}

// pack narrows pts into out, of their length, and panics, before the tree
// has changed, if one of them lies outside the universe: it would silently
// corrupt the split hierarchy. A batch of one block is narrowed without a
// closure, so it allocates nothing.
func (t *tree[S]) pack(pts []geom.Point, out []S) []S {
	const grain = 4096
	in := true
	if len(pts) <= grain {
		in = t.packRange(pts, out, 0, len(pts))
	} else {
		var outside atomic.Bool
		parallel.Blocks(len(pts), grain, func(lo, hi int) {
			if !t.packRange(pts, out, lo, hi) {
				outside.Store(true)
			}
		})
		in = !outside.Load()
	}
	if !in {
		panic(errOutside)
	}
	return out
}

// packRange narrows pts[lo:hi] into out and reports whether all of them
// lie in the universe.
func (t *tree[S]) packRange(pts []geom.Point, out []S, lo, hi int) bool {
	u, dims := t.opts.Universe, t.opts.Dims
	in := true
	for i := lo; i < hi; i++ {
		in = in && u.Contains(pts[i], dims)
		out[i] = geom.Pack[S](pts[i])
	}
	return in
}

const errOutside = "orthtree: point outside universe box"

// seqCutoff is the subtree size below which recursion stops forking.
const seqCutoff = 2048

// BatchDiff implements core.Index: deletions apply before insertions, so
// a point that moves within one diff (same coordinates in both batches)
// nets out correctly; an insertion outside the universe is refused before
// either applies. History independence makes the two-pass form
// canonical — the result is identical to any fused application.
func (t *tree[S]) BatchDiff(ins, del []geom.Point) {
	t.Begin()
	defer t.End()
	work := t.pack(ins, core.Scratch(&t.Pool().X.ins, len(ins)))
	if len(del) > 0 && t.root != nil {
		t.deletePacked(del)
	}
	t.insertPacked(work)
}
