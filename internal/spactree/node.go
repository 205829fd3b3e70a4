package spactree

import (
	"slices"

	"repro/internal/geom"
)

// node is a leaf (left == nil) holding up to LeafWrap entries, or an
// interior node holding the pivot entry itself (true BST, Alg. 3 line 30).
// sorted marks whether a leaf's entries are in (code, point) order; interior
// nodes ignore it. In TotalOrder (CPAM) mode every leaf stays sorted; in
// PartialOrder (SPaC) mode leaves go unsorted on append and are re-sorted
// lazily by expose/redistribute (Alg. 4 lines 34, 43). A leaf's entries sit
// in a block of its own, sized as core.GrowBlock and core.FitBlock say.
//
// gen is the generation of the Tree that created the node (cow.go): only
// a tree whose own generation equals it may write the node or its entry
// block; to every other tree that reaches it the node is immutable.
type node[S geom.Packed] struct {
	size        int // points in subtree (leaf entries + interior pivots)
	gen         uint64
	bbox        geom.PackedBox[S]
	pivot       Entry[S]
	left, right *node[S]
	ents        []Entry[S]
	sorted      bool
}

func (nd *node[S]) isLeaf() bool { return nd != nil && nd.left == nil }

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

// newLeaf wraps entries (not copied) into a leaf, whose block they become.
func (t *tree[S]) newLeaf(ents []Entry[S], isSorted bool) *node[S] {
	return &node[S]{size: len(ents), gen: t.gen, bbox: entsBBox(ents), ents: ents, sorted: isSorted}
}

// entsBBox computes the tight bounding box of a run of entries.
func entsBBox[S geom.Packed](ents []Entry[S]) geom.PackedBox[S] {
	bbox := geom.EmptyPacked[S]()
	for i := range ents {
		bbox = bbox.Extend(ents[i].P)
	}
	return bbox
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
	return &node[S]{
		size:  sizeOf(l) + sizeOf(r) + 1,
		gen:   t.gen,
		bbox:  t.interiorBBox(l, k, r),
		pivot: k,
		left:  l,
		right: r,
	}
}

// mkNode is the Node() smart constructor of Alg. 4 (lines 38-48): it
// restores the leaf-wrap invariant where a join step broke it. Subtrees at
// or below φ collapse into one leaf (line 47); subtrees at or below 2φ
// whose halves went out of balance redistribute into two even leaves
// (line 44, "if necessary" — an already-balanced pair is kept as is, so
// lazily-unsorted leaves are NOT re-sorted on every touch); larger
// subtrees become plain interior nodes.
func (t *tree[S]) mkNode(l *node[S], k Entry[S], r *node[S]) *node[S] {
	phi := t.opts.LeafWrap
	n := sizeOf(l) + sizeOf(r) + 1
	if n <= phi {
		// Flatten into a single leaf (line 47).
		ents := make([]Entry[S], 0, n)
		ents, srt := collectOrdered(l, ents, true)
		ents = append(ents, k)
		ents, srt2 := collectOrdered(r, ents, srt)
		return t.newLeaf(ents, srt && srt2 && isNonDecreasing(ents))
	}
	if n <= 2*phi && !t.balancedNodes(l, r) {
		// Redistribute into two leaves around a middle pivot (line 44),
		// sorting lazily-unsorted constituents first (line 43).
		ents := make([]Entry[S], 0, n)
		ents, _ = collectOrdered(l, ents, true)
		ents = append(ents, k)
		ents, _ = collectOrdered(r, ents, true)
		sortEntries(ents)
		m := n / 2
		return t.rawNode(
			t.newLeaf(slices.Clone(ents[:m]), true),
			ents[m],
			t.newLeaf(slices.Clone(ents[m+1:]), true),
		)
	}
	return t.rawNode(l, k, r)
}

// collectOrdered appends the subtree's entries in in-order sequence and
// reports whether the appended run is known to be in sorted order (all
// leaves sorted).
func collectOrdered[S geom.Packed](nd *node[S], dst []Entry[S], sortedSoFar bool) ([]Entry[S], bool) {
	if nd == nil {
		return dst, sortedSoFar
	}
	if nd.isLeaf() {
		return append(dst, nd.ents...), sortedSoFar && nd.sorted
	}
	dst, s := collectOrdered(nd.left, dst, sortedSoFar)
	dst = append(dst, nd.pivot)
	return collectOrdered(nd.right, dst, s)
}

// isNonDecreasing verifies a short run is actually sorted (flatten
// concatenates runs from different leaves; their boundaries are ordered by
// the BST invariant, so sorted sub-runs imply a sorted whole — this check
// is a cheap belt-and-suspenders for the ≤ φ case).
func isNonDecreasing[S geom.Packed](ents []Entry[S]) bool {
	for i := 1; i < len(ents); i++ {
		if cmpEntry(ents[i-1], ents[i]) > 0 {
			return false
		}
	}
	return true
}

// expose opens a tree into (left, pivot, right) (Alg. 4 lines 32-37). A
// leaf is split around its middle entry — restoring the in-leaf order
// first if it was relaxed (line 34); this lazy sort is where the SPaC-tree
// pays back its deferred work, on the rare join path instead of on every
// update.
func (t *tree[S]) expose(nd *node[S], c *cow) (*node[S], Entry[S], *node[S]) {
	if !nd.isLeaf() {
		return nd.left, nd.pivot, nd.right
	}
	ents := t.sortedEnts(nd, c)
	m := len(ents) / 2
	var l, r *node[S]
	if m > 0 {
		l = t.newLeaf(slices.Clone(ents[:m]), true)
	}
	if m+1 < len(ents) {
		r = t.newLeaf(slices.Clone(ents[m+1:]), true)
	}
	return l, ents[m], r
}

// sortedEnts returns leaf nd's entries in order, for a caller that only
// reads them: an owned leaf pays its deferred sort in place, a shared one
// is left as its other readers know it and a sorted copy is returned.
func (t *tree[S]) sortedEnts(nd *node[S], c *cow) []Entry[S] {
	ents := nd.ents
	if nd.sorted {
		return ents
	}
	if t.owns(nd) {
		nd.sorted = true
	} else {
		ents = slices.Clone(ents)
		copied(c, ents)
	}
	sortEntries(ents)
	return ents
}
