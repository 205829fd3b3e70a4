// Package zdtree implements the Zd-tree baseline of Blelloch & Dobson [16]
// as described by the paper (§2.3, §5 "Baselines"): a parallel orth-tree
// built over Morton codes. Construction computes the Morton code of every
// point, sorts the ⟨code, point⟩ pairs by code, and builds the quadtree
// recursively by splitting the sorted array at code-prefix boundaries
// (binary search). Batch updates sort the batch and merge it into the tree
// by the same prefix routing.
//
// The paper re-implemented the Zd-tree for the same reason we do — the
// original artifact's updates are buggy — and notes its construction cost
// is dominated by the Morton sort. It shares the keyed sort of the SPaC
// family (parallel.SortByKey), moving whole 32-byte entries through it;
// the P-Orth tree's edge is that its sieve computes, stores and sorts no
// codes at all.
//
// Like the P-Orth tree, the Zd-tree is history-independent: its hierarchy
// is the fixed power-of-two Morton grid.
package zdtree

import (
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/sfc"
)

// Entry pairs a point with its Morton code. Leaves store entries sorted by
// code so batch merges stay linear.
type Entry struct {
	Code uint64
	P    geom.Point
}

// Tree is a Zd-tree.
type Tree struct {
	opts     core.Options
	nway     int
	topShift int // bit position of the root's quadrant digit
	root     *node
}

var _ core.Index = (*Tree)(nil)

// node: interior (kids != nil, len 2^dims) or leaf (ents sorted by code).
type node struct {
	size int
	bbox geom.Box
	kids []*node
	ents []Entry
}

func (nd *node) isLeaf() bool { return nd.kids == nil }

// New returns an empty Zd-tree. The universe must fit Morton precision
// (32 bits per dimension in 2D, 21 in 3D) and must not contain negative
// coordinates.
func New(opts core.Options) *Tree {
	opts.Validate()
	maxc := sfc.MaxCoord(sfc.Morton, opts.Dims)
	u := opts.Universe
	for d := 0; d < opts.Dims; d++ {
		if u.Lo[d] < 0 || u.Hi[d] > maxc {
			panic("zdtree: universe exceeds Morton precision")
		}
	}
	dims := opts.Dims
	bitsPerDim := 32
	if dims == 3 {
		bitsPerDim = 21
	}
	return &Tree{
		opts:     opts,
		nway:     1 << dims,
		topShift: (bitsPerDim - 1) * dims,
	}
}

// NewDefault returns a Zd-tree with the paper's parameters.
func NewDefault(dims int, universe geom.Box) *Tree {
	return New(core.DefaultOptions(dims, universe))
}

// Name implements core.Index.
func (t *Tree) Name() string { return "Zd-Tree" }

// Dims implements core.Index.
func (t *Tree) Dims() int { return t.opts.Dims }

// Size implements core.Index.
func (t *Tree) Size() int {
	if t.root == nil {
		return 0
	}
	return t.root.size
}

// encodeAll computes ⟨code, point⟩ pairs in parallel — the preprocessing
// pass the P-Orth tree avoids.
func (t *Tree) encodeAll(pts []geom.Point) []Entry {
	dims := t.opts.Dims
	ents := make([]Entry, len(pts))
	parallel.For(len(pts), 4096, func(i int) {
		ents[i] = Entry{Code: sfc.Encode(sfc.Morton, pts[i], dims), P: pts[i]}
	})
	return ents
}

// sortEntries sorts by code alone: a Morton code is its point (the
// interleave is a bijection at the precision New admits), so equal codes
// need no tie-break.
func sortEntries(ents []Entry) {
	parallel.SortByKey(ents, func(e Entry) uint64 { return e.Code }, nil)
}

// Build implements core.Index: encode, sort, recursive prefix-split build.
func (t *Tree) Build(pts []geom.Point) {
	ents := t.encodeAll(pts)
	sortEntries(ents)
	t.root = t.build(ents, t.topShift)
}

// BatchInsert implements core.Index.
func (t *Tree) BatchInsert(pts []geom.Point) {
	if len(pts) == 0 {
		return
	}
	ents := t.encodeAll(pts)
	sortEntries(ents)
	t.root = t.insert(t.root, ents, t.topShift)
}

// BatchDelete implements core.Index (multiset semantics).
func (t *Tree) BatchDelete(pts []geom.Point) {
	if len(pts) == 0 || t.root == nil {
		return
	}
	ents := t.encodeAll(pts)
	sortEntries(ents)
	t.root = t.delete(t.root, ents, t.topShift)
}

// seqCutoff matches the other trees' fork grain.
const seqCutoff = 2048

// digit extracts the quadrant index at the given shift. Bit d of the
// result corresponds to dimension d, matching the orth-tree child order.
func (t *Tree) digit(code uint64, shift int) int {
	return int(code >> uint(shift) & uint64(t.nway-1))
}

// splitBounds locates the child segment boundaries of a code-sorted slice:
// bounds[q] is the first index whose digit at shift is >= q.
func (t *Tree) splitBounds(ents []Entry, shift int) []int {
	bounds := make([]int, t.nway+1)
	for q := 1; q < t.nway; q++ {
		target := q
		bounds[q] = sort.Search(len(ents), func(i int) bool {
			return t.digit(ents[i].Code, shift) >= target
		})
	}
	bounds[t.nway] = len(ents)
	return bounds
}

// build recursively constructs a subtree from code-sorted entries. shift
// is the bit position of this level's quadrant digit; shift < 0 means the
// code space is exhausted (duplicate coordinates) and the entries become
// an oversized leaf, mirroring the P-Orth tree's degenerate-region rule.
func (t *Tree) build(ents []Entry, shift int) *node {
	n := len(ents)
	if n == 0 {
		return nil
	}
	if n <= t.opts.LeafWrap || shift < 0 {
		return t.newLeaf(ents)
	}
	bounds := t.splitBounds(ents, shift)
	kids := make([]*node, t.nway)
	rec := func(q int) {
		lo, hi := bounds[q], bounds[q+1]
		if lo < hi {
			kids[q] = t.build(ents[lo:hi], shift-t.opts.Dims)
		}
	}
	if n >= seqCutoff {
		parallel.ForEach(t.nway, 1, rec)
	} else {
		for q := 0; q < t.nway; q++ {
			rec(q)
		}
	}
	return t.makeInterior(kids)
}

// newLeaf copies code-sorted entries into an owned leaf.
func (t *Tree) newLeaf(ents []Entry) *node {
	own := make([]Entry, len(ents))
	copy(own, ents)
	bbox := geom.EmptyBox(t.opts.Dims)
	for _, e := range own {
		bbox = bbox.Extend(e.P, t.opts.Dims)
	}
	return &node{size: len(own), bbox: bbox, ents: own}
}

func (t *Tree) makeInterior(kids []*node) *node {
	size := 0
	bbox := geom.EmptyBox(t.opts.Dims)
	for _, c := range kids {
		if c != nil {
			size += c.size
			bbox = bbox.Union(c.bbox, t.opts.Dims)
		}
	}
	if size == 0 {
		return nil
	}
	nd := &node{size: size, bbox: bbox, kids: kids}
	if size <= t.opts.LeafWrap {
		return t.flatten(nd)
	}
	return nd
}

// flatten collapses a subtree into one leaf; concatenating children in
// quadrant order preserves code order, so the result stays sorted.
func (t *Tree) flatten(nd *node) *node {
	ents := make([]Entry, 0, nd.size)
	ents = collectEntries(nd, ents)
	return &node{size: len(ents), bbox: nd.bbox, ents: ents}
}

func collectEntries(nd *node, dst []Entry) []Entry {
	if nd == nil {
		return dst
	}
	if nd.isLeaf() {
		return append(dst, nd.ents...)
	}
	for _, c := range nd.kids {
		dst = collectEntries(c, dst)
	}
	return dst
}

// BatchDiff implements core.Index: deletions apply before insertions.
func (t *Tree) BatchDiff(ins, del []geom.Point) {
	t.BatchDelete(del)
	t.BatchInsert(ins)
}
