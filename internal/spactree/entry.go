// Package spactree implements the Spatial PaC-tree (SPaC-tree) family —
// the paper's second contribution (§4) — together with the CPAM/PaC-tree
// baseline [23] it is measured against.
//
// Both are join-based weight-balanced binary search trees over
// space-filling-curve codes with block-wrapped leaves and bounding-box
// augmentation (i.e. parallel R-trees). Both build alike: ⟨code, point⟩
// entries are sorted by code and split into a perfectly balanced tree.
// The paper's HybridSort (Alg. 3) sorts ⟨code, id⟩ pairs instead, so that
// coordinates do not move through the sort, and gathers them into leaves
// at the end; with points packed into int32s an entry is the same 16
// bytes as a pair in 2-D, so sorting entries saves the gather. The modes
// differ in the design point of the paper that remains, leaf layout:
//
//   - Leaf order. SPaC mode relaxes the total order inside leaves (Alg. 4):
//     batch inserts append to leaves and mark them unsorted; the order is
//     restored lazily, only when a join must expose or redistribute the
//     leaf. CPAM mode maintains fully sorted leaves on every update.
//
//   - Leaf codes. A CPAM leaf keeps each point's code beside it; a SPaC
//     leaf stores its points alone and recomputes codes where it needs
//     its order.
//
// Spatial queries never read the in-leaf order — a leaf is scanned wholesale
// either way — which is the observation that makes the relaxation free for
// queries and 2-6x cheaper for updates (§5.1.2). Sibling boxes overlap, as
// in any R-tree, so KNN is a best-first search (query.go): subtrees wait in
// a min-queue on their box distance and are opened nearest first, only
// while they can still beat the k-th neighbour found so far.
//
// Points are stored as int32 coordinates with no Z in 2-D (geom.Packed):
// a Tree is a handle on a tree[S] whose S New picks from the
// dimensionality. A SPaC leaf stores its points alone, 8 bytes each in
// 2-D and 12 in 3-D; a CPAM leaf keeps each point's code beside it, 16 and
// 24 bytes; a node takes 96 bytes in 2-D.
//
// Updates are copy-on-write by generation stamp (cow.go): a tree that never
// shares its structure writes nodes in place, as the paper's C++ trees do;
// two trees made handles on one structure by Adopt each copy only the
// paths they go on to change — what lets the snapshot-read layers keep one
// tree under both of their versions.
package spactree

import (
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/sfc"
)

// Entry is a point in its stored form S with its curve code: an interior
// node's pivot, an element of an update batch, or a leaf's point while an
// operation that needs the leaf's order holds it in scratch. The tree's total order is (Code, then point lexicographically), so
// duplicate codes — and even duplicate points — have well-defined
// positions.
type Entry[S geom.Packed] struct {
	Code uint64
	P    S
}

// cmpEntry orders entries by code, breaking ties by point coordinates.
func cmpEntry[S geom.Packed](a, b Entry[S]) int {
	switch {
	case a.Code < b.Code:
		return -1
	case a.Code > b.Code:
		return 1
	}
	return geom.ComparePacked(a.P, b.P)
}

// sortEntries sorts ents into the tree's total order: by code with the
// keyed sort, by coordinates only among entries of one code. Batches and
// CPAM construction sort through here; a leaf-sized run in scratch sorts
// with sortLeaf, which keeps the scratch on the stack.
func sortEntries[S geom.Packed](ents []Entry[S]) {
	parallel.SortByKey(ents, func(e Entry[S]) uint64 { return e.Code }, func(a, b Entry[S]) int {
		return geom.ComparePacked(a.P, b.P)
	})
}

// encode computes the entry for a point under the tree's curve, narrowing
// the point to its stored form.
func (t *tree[S]) encode(p geom.Point) Entry[S] {
	return Entry[S]{Code: sfc.Encode(t.curve, p, t.opts.Dims), P: geom.Pack[S](p)}
}

// encodePacked computes the entry for a stored point.
func (t *tree[S]) encodePacked(p S) Entry[S] {
	return Entry[S]{Code: sfc.Encode(t.curve, geom.Unpack(p), t.opts.Dims), P: p}
}

// codeSlot and slotCode put a code in one element of a leaf block and take
// it out again: its low and high halves in the first two coordinates.
func codeSlot[S geom.Packed](code uint64) (s S) {
	s[0], s[1] = int32(code), int32(code>>32)
	return s
}

func slotCode[S geom.Packed](s S) uint64 {
	return uint64(uint32(s[0])) | uint64(uint32(s[1]))<<32
}
