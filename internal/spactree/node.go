package spactree

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// node is a leaf (left == nil) holding up to LeafWrap points, or an
// interior node holding the pivot entry itself (true BST, Alg. 3 line 30).
// A leaf stores its points alone, as Alg. 3 gathers them (line 23): a code
// is recomputed only where a leaf's order is needed (leafEnts). A
// TotalOrder (CPAM) leaf, the paper's plain adaptation of ⟨code, point⟩
// pairs, keeps its codes too, after its points in the same block, one code
// per S (codeSlot). sorted marks whether a leaf's points are in (code,
// point) order; interior nodes ignore it. In TotalOrder mode every leaf
// stays sorted; in PartialOrder (SPaC) mode leaves go unsorted on append
// and are sorted lazily, into scratch, by expose/redistribute (Alg. 4
// lines 34, 43). A leaf's block is its own, sized as core.Recycler's Grow
// and Fit say.
//
// gen is the generation of the Tree that created the node (cow.go): only
// a tree whose own generation equals it may write the node or its block;
// to every other tree that reaches it the node is immutable.
type node[S geom.Packed] struct {
	size        int // points in subtree (leaf points + interior pivots)
	gen         uint64
	bbox        geom.PackedBox[S]
	pivot       Entry[S]
	left, right *node[S]
	pts         []S
	sorted      bool
}

func (nd *node[S]) isLeaf() bool { return nd != nil && nd.left == nil }

// points returns a leaf's stored points, without the codes that follow
// them in a TotalOrder leaf.
func (nd *node[S]) points() []S { return nd.pts[:nd.size] }

func sizeOf[S geom.Packed](nd *node[S]) int {
	if nd == nil {
		return 0
	}
	return nd.size
}

// weight is the BB[α] weight: size + 1 (nil trees weigh 1).
func weight[S geom.Packed](nd *node[S]) int { return sizeOf(nd) + 1 }

// likeWeights reports whether two subtree weights satisfy BB[α]: each side
// carries at least an α fraction of the total.
func (t *tree[S]) likeWeights(lw, rw int) bool {
	a := t.opts.Alpha
	tot := float64(lw + rw)
	return float64(lw) >= a*tot && float64(rw) >= a*tot
}

func (t *tree[S]) balancedNodes(l, r *node[S]) bool {
	return t.likeWeights(weight(l), weight(r))
}

// newLeaf makes a leaf of ents in a block of its own, recycled in an
// update: their points, and in TotalOrder mode their codes after them.
// ents is not kept.
func (t *tree[S]) newLeaf(ents []Entry[S], isSorted bool) *node[S] {
	n := len(ents)
	blk := t.Blocks().Make(t.blockLen(n))
	bbox := geom.EmptyPacked[S]()
	for i := range ents {
		blk[i] = ents[i].P
		bbox = bbox.Extend(ents[i].P)
	}
	if t.mode == TotalOrder {
		codes := blk[n:]
		for i := range ents {
			codes[i] = codeSlot[S](ents[i].Code)
		}
	}
	return t.NewNode(node[S]{size: n, gen: t.Gen, bbox: bbox, pts: blk, sorted: isSorted})
}

// blockLen is the length of a fitted block for a leaf of n points.
func (t *tree[S]) blockLen(n int) int {
	if t.mode == TotalOrder {
		return 2 * n
	}
	return n
}

// leafEnts appends leaf nd's entries, in stored order, to dst. A
// TotalOrder leaf reads its codes from its block; a PartialOrder leaf
// computes them when coded is set and leaves them zero otherwise, for a
// caller that only moves the points into a new leaf.
func (t *tree[S]) leafEnts(dst []Entry[S], nd *node[S], coded bool) []Entry[S] {
	pts := nd.points()
	switch {
	case t.mode == TotalOrder:
		codes := nd.pts[nd.size:]
		for i, p := range pts {
			dst = append(dst, Entry[S]{Code: slotCode(codes[i]), P: p})
		}
	case coded:
		for _, p := range pts {
			dst = append(dst, t.encodePacked(p))
		}
	default:
		for _, p := range pts {
			dst = append(dst, Entry[S]{P: p})
		}
	}
	return dst
}

// interiorBBox combines children boxes with the pivot point.
func (t *tree[S]) interiorBBox(l *node[S], k Entry[S], r *node[S]) geom.PackedBox[S] {
	bbox := geom.EmptyPacked[S]().Extend(k.P)
	if l != nil {
		bbox = bbox.Union(l.bbox)
	}
	if r != nil {
		bbox = bbox.Union(r.bbox)
	}
	return bbox
}

// rawNode creates an interior node with no leaf-wrap checks (used by the
// perfectly balanced builder, where sizes are known to be large enough).
func (t *tree[S]) rawNode(l *node[S], k Entry[S], r *node[S]) *node[S] {
	return t.NewNode(node[S]{
		size:  sizeOf(l) + sizeOf(r) + 1,
		gen:   t.Gen,
		bbox:  t.interiorBBox(l, k, r),
		pivot: k,
		left:  l,
		right: r,
	})
}

// mkNode is the Node() smart constructor of Alg. 4 (lines 38-48): it
// restores the leaf-wrap invariant where a join step broke it. Subtrees at
// or below φ collapse into one leaf (line 47); subtrees at or below 2φ
// whose halves went out of balance redistribute into two even leaves
// (line 44, "if necessary" — an already-balanced pair is kept as is, so
// lazily-unsorted leaves are NOT re-sorted on every touch); larger
// subtrees become plain interior nodes. Both leaf cases gather into
// scratch: a flattened SPaC leaf needs no codes, since concatenating in
// order keeps sorted runs sorted; a redistribution sorts, so it computes
// them.
func (t *tree[S]) mkNode(l *node[S], k Entry[S], r *node[S]) *node[S] {
	phi := t.opts.LeafWrap
	n := sizeOf(l) + sizeOf(r) + 1
	if n <= phi {
		// Flatten into a single leaf (line 47).
		ents := make([]Entry[S], 0, leafScratch)
		ents, srt := t.collectOrdered(l, ents, true, false)
		ents = append(ents, k)
		ents, srt = t.collectOrdered(r, ents, srt, false)
		t.drop(l)
		t.drop(r)
		return t.newLeaf(ents, srt)
	}
	if n <= 2*phi && !t.balancedNodes(l, r) {
		// Redistribute into two leaves around a middle pivot (line 44),
		// sorting lazily-unsorted constituents first (line 43).
		ents := make([]Entry[S], 0, 2*leafScratch+1)
		ents, srt := t.collectOrdered(l, ents, true, true)
		ents = append(ents, k)
		ents, srt = t.collectOrdered(r, ents, srt, true)
		t.drop(l)
		t.drop(r)
		if !srt {
			sortLeaf(ents)
		}
		m := n / 2
		return t.rawNode(t.newLeaf(ents[:m], true), ents[m], t.newLeaf(ents[m+1:], true))
	}
	return t.rawNode(l, k, r)
}

// leafScratch sizes the entry scratch a leaf operation gathers into: φ
// entries at the paper's φ = 40 for a leaf or a flattened subtree, 2φ+1
// for a redistribution and 4φ for the local rebuild, so that at that φ
// the scratch stays on the stack. A larger φ grows it on the heap.
const leafScratch = 40

// sortLeaf sorts a leaf-sized run of entries into the tree's total order,
// as the tree's order does but without moving ents to the heap: with the
// short keyed sort, or the comparator sort past its length (a leaf wrap
// above the paper's).
func sortLeaf[S geom.Packed](ents []Entry[S]) {
	if len(ents) > parallel.ShortSortLen {
		slices.SortFunc(ents, cmpEntry[S])
		return
	}
	parallel.SortShortByKey(ents, func(e Entry[S]) uint64 { return e.Code }, func(a, b Entry[S]) int {
		return geom.ComparePacked(a.P, b.P)
	})
}

// collectOrdered appends the subtree's entries in in-order sequence and
// reports whether the appended run is known to be in sorted order (all
// leaves sorted). Leaf codes are computed only when coded is set (see
// leafEnts); pivots always carry theirs.
func (t *tree[S]) collectOrdered(nd *node[S], dst []Entry[S], sortedSoFar, coded bool) ([]Entry[S], bool) {
	if nd == nil {
		return dst, sortedSoFar
	}
	if nd.isLeaf() {
		return t.leafEnts(dst, nd, coded), sortedSoFar && nd.sorted
	}
	dst, s := t.collectOrdered(nd.left, dst, sortedSoFar, coded)
	dst = append(dst, nd.pivot)
	return t.collectOrdered(nd.right, dst, s, coded)
}

// expose opens a tree into (left, pivot, right) (Alg. 4 lines 32-37). A
// leaf is split around its middle entry — its order restored first if it
// was relaxed (line 34); this lazy sort is where the SPaC-tree pays back
// its deferred work, on the rare join path instead of on every update.
// The leaf itself is left as it is, its halves new leaves. The caller
// replaces nd, so an owned one is recycled.
func (t *tree[S]) expose(nd *node[S]) (*node[S], Entry[S], *node[S]) {
	if !nd.isLeaf() {
		l, k, r := nd.left, nd.pivot, nd.right
		t.free(nd)
		return l, k, r
	}
	ents := t.leafEnts(make([]Entry[S], 0, leafScratch), nd, true)
	if !nd.sorted {
		sortLeaf(ents)
	}
	t.free(nd)
	m := len(ents) / 2
	var l, r *node[S]
	if m > 0 {
		l = t.newLeaf(ents[:m], true)
	}
	if m+1 < len(ents) {
		r = t.newLeaf(ents[m+1:], true)
	}
	return l, ents[m], r
}
