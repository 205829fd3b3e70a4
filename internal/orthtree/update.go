package orthtree

import (
	"repro/internal/geom"
	"repro/internal/parallel"
)

// Batch updates (Alg. 2) come in two flavors keyed on batch size:
//
//   - Large batches sieve through a λ-level skeleton of the existing tree
//     (the paper's I/O-efficient path: one round of data movement covers
//     λ levels).
//   - Small batches — which dominate the recursion once a large batch has
//     fanned out, and entire workloads at small batch ratios — take an
//     allocation-free single-level partition: the skeleton of depth 1 is
//     just the node's children, so materializing it would be pure
//     overhead.
//
// Both paths produce the same canonical tree (§3's structure is
// determined by the point multiset alone), which the history-independence
// tests verify.

// smallBatch is the cutoff below which updates use the inline
// single-level partition.
const smallBatch = 128

// skeleton is the top-λ-levels view of an existing subtree used by large
// batch updates (Alg. 2 line 5). nodes holds the existing interior nodes
// in preorder and mids the split point of each; slots are the skeleton's
// external positions; table is the flat dispatch (stride nway): entry >= 1
// names the next internal node, entry < 0 encodes ^slotIndex.
type skeleton struct {
	nodes []skelNode
	mids  []geom.Point
	slots []slot
	table []int32
	nway  int
}

type skelNode struct {
	tn         *node
	parentSkel int32 // index into nodes; -1 for the skeleton root
	childIdx   int32 // position of this node in its parent's kids
}

type slot struct {
	parent   *node // interior node owning this child pointer
	childIdx int
	child    *node // may be nil (empty orthant) or a subtree root
	region   geom.Box
}

// retrieve builds the skeleton of interior node nd down to depth lam,
// preallocating for the worst-case fan-out so enumeration never regrows.
// nd and every skeleton node below it are t's own (cow.go).
func (t *Tree) retrieve(nd *node, region geom.Box, lam int) *skeleton {
	maxSlots := 1
	for i := 0; i < lam; i++ {
		maxSlots *= t.nway
	}
	maxNodes := (maxSlots - 1) / (t.nway - 1)
	sk := &skeleton{
		nodes: make([]skelNode, 0, maxNodes),
		mids:  make([]geom.Point, 0, maxNodes),
		slots: make([]slot, 0, maxSlots),
		table: make([]int32, 0, maxNodes*t.nway),
		nway:  t.nway,
	}
	sk.enumerate(t, nd, region, 0, lam, -1, 0)
	return sk
}

func (sk *skeleton) enumerate(t *Tree, nd *node, region geom.Box, level, lam int, parentSkel, childIdx int32) int32 {
	idx := int32(len(sk.nodes))
	sk.nodes = append(sk.nodes, skelNode{tn: nd, parentSkel: parentSkel, childIdx: childIdx})
	dims := t.opts.Dims
	sk.mids = append(sk.mids, mids(region, dims))
	row := len(sk.table)
	sk.table = append(sk.table, make([]int32, sk.nway)...)
	for q := 0; q < t.nway; q++ {
		child := nd.kids[q]
		cregion := region.Child(q, dims)
		if level+1 == lam || child == nil || child.isLeaf() {
			sk.table[row+q] = int32(^len(sk.slots))
			sk.slots = append(sk.slots, slot{parent: nd, childIdx: q, child: child, region: cregion})
		} else {
			child = t.own(child)
			nd.kids[q] = child
			sk.table[row+q] = sk.enumerate(t, child, cregion, level+1, lam, idx, int32(q))
		}
	}
	return idx
}

// route walks a point to its slot. Split points are stored per skeleton
// node, so each level costs D compares and a table lookup.
func (sk *skeleton) route(dims int, p geom.Point) int {
	i := int32(0)
	for {
		q := quadrant(sk.mids[i], p, dims)
		next := sk.table[int(i)*sk.nway+q]
		if next < 0 {
			return int(^next)
		}
		i = next
	}
}

// insert implements BatchInsertOrth (Alg. 2). pts/buf are scratch slices
// holding the batch; the returned node replaces nd.
func (t *Tree) insert(nd *node, pts, buf []geom.Point, region geom.Box) *node {
	if len(pts) == 0 {
		return nd
	}
	if nd == nil {
		return t.build(pts, buf, region, false)
	}
	dims := t.opts.Dims
	if nd.isLeaf() {
		// Alg. 2 lines 3-4: a leaf either absorbs the batch or is rebuilt
		// together with it.
		if nd.size+len(pts) <= t.opts.LeafWrap || !region.Splittable(dims) {
			nd = t.own(nd)
			for _, p := range pts {
				nd.bbox = nd.bbox.Extend(p, dims)
			}
			nd.pts = append(nd.pts, pts...)
			nd.size = len(nd.pts)
			return nd
		}
		combined := make([]geom.Point, 0, nd.size+len(pts))
		combined = append(combined, nd.pts...)
		combined = append(combined, pts...)
		cbuf := make([]geom.Point, len(combined))
		return t.build(combined, cbuf, region, false)
	}
	if len(pts) < smallBatch {
		return t.insertSmall(nd, pts, buf, region)
	}

	// Lines 5-7: retrieve the skeleton and sieve the batch through it.
	nd = t.own(nd)
	sk := t.skeletonFor(nd, region, len(pts))
	offsets := parallel.Sieve(pts, buf, len(sk.slots), func(p geom.Point) int {
		return sk.route(dims, p)
	})

	// Lines 8-10: recurse into every external slot in parallel. Distinct
	// slots write distinct child pointers, so the writes do not race.
	rec := func(i int) {
		lo, hi := offsets[i], offsets[i+1]
		if lo == hi {
			return
		}
		s := &sk.slots[i]
		s.parent.kids[s.childIdx] = t.insert(s.child, buf[lo:hi], pts[lo:hi], s.region)
	}
	if len(pts) >= seqCutoff {
		parallel.ForEach(len(sk.slots), 1, rec)
	} else {
		for i := range sk.slots {
			rec(i)
		}
	}

	// Line 11: refresh sizes and bounding boxes of the skeleton's
	// interior nodes, children before parents (reverse preorder).
	for j := len(sk.nodes) - 1; j >= 0; j-- {
		recompute(sk.nodes[j].tn, dims)
	}
	return nd
}

// splitSmall is the depth-1 skeleton of the small-batch paths: it
// partitions pts (fewer than smallBatch points) into buf by quadrant of
// region with stack-allocated counters; quadrant q lands in
// buf[offs[q]:offs[q+1]].
func (t *Tree) splitSmall(pts, buf []geom.Point, region geom.Box) (offs [9]int) {
	dims := t.opts.Dims
	mid := mids(region, dims)
	var qb [smallBatch]uint8
	for i, p := range pts {
		q := quadrant(mid, p, dims)
		qb[i] = uint8(q)
		offs[q+1]++
	}
	for q := 0; q < t.nway; q++ {
		offs[q+1] += offs[q]
	}
	pos := offs
	for i, p := range pts {
		q := qb[i]
		buf[pos[q]] = p
		pos[q]++
	}
	return offs
}

// insertSmall is the depth-1 fast path: partition the batch across the
// node's children and recurse.
func (t *Tree) insertSmall(nd *node, pts, buf []geom.Point, region geom.Box) *node {
	nd = t.own(nd)
	dims := t.opts.Dims
	offs := t.splitSmall(pts, buf, region)
	for q := 0; q < t.nway; q++ {
		lo, hi := offs[q], offs[q+1]
		if lo < hi {
			nd.kids[q] = t.insert(nd.kids[q], buf[lo:hi], pts[lo:hi], region.Child(q, dims))
		}
	}
	recompute(nd, dims)
	return nd
}

// delete is the symmetric batch deletion (§3.2): route the batch through
// the skeleton, remove matches in leaves, then collapse undersized
// subtrees into leaves on the way back up.
func (t *Tree) delete(nd *node, pts, buf []geom.Point, region geom.Box) *node {
	if nd == nil || len(pts) == 0 {
		return nd
	}
	dims := t.opts.Dims
	if nd.isLeaf() {
		nd = t.removeFromLeaf(nd, pts)
		if nd.size == 0 {
			return nil
		}
		return nd
	}
	if len(pts) < smallBatch {
		return t.deleteSmall(nd, pts, buf, region)
	}
	nd = t.own(nd)
	sk := t.skeletonFor(nd, region, len(pts))
	offsets := parallel.Sieve(pts, buf, len(sk.slots), func(p geom.Point) int {
		return sk.route(dims, p)
	})
	rec := func(i int) {
		lo, hi := offsets[i], offsets[i+1]
		if lo == hi {
			return
		}
		s := &sk.slots[i]
		s.parent.kids[s.childIdx] = t.delete(s.child, buf[lo:hi], pts[lo:hi], s.region)
	}
	if len(pts) >= seqCutoff {
		parallel.ForEach(len(sk.slots), 1, rec)
	} else {
		for i := range sk.slots {
			rec(i)
		}
	}

	// Collapse pass: recompute each skeleton node bottom-up; nodes that
	// fell to zero become nil, nodes at or below the leaf wrap flatten
	// into leaves (the "additional step" of §3.2). Replacements propagate
	// into the parent's child slot; a replaced skeleton root is returned.
	root := nd
	for j := len(sk.nodes) - 1; j >= 0; j-- {
		sn := &sk.nodes[j]
		recompute(sn.tn, dims)
		var repl *node
		switch {
		case sn.tn.size == 0:
			repl = nil
		case sn.tn.size <= t.opts.LeafWrap:
			repl = t.flatten(sn.tn)
		default:
			continue
		}
		if sn.parentSkel >= 0 {
			sk.nodes[sn.parentSkel].tn.kids[sn.childIdx] = repl
		} else {
			root = repl
		}
	}
	return root
}

// deleteSmall mirrors insertSmall with the §3.2 collapse step.
func (t *Tree) deleteSmall(nd *node, pts, buf []geom.Point, region geom.Box) *node {
	nd = t.own(nd)
	dims := t.opts.Dims
	offs := t.splitSmall(pts, buf, region)
	for q := 0; q < t.nway; q++ {
		lo, hi := offs[q], offs[q+1]
		if lo < hi {
			nd.kids[q] = t.delete(nd.kids[q], buf[lo:hi], pts[lo:hi], region.Child(q, dims))
		}
	}
	recompute(nd, dims)
	switch {
	case nd.size == 0:
		return nil
	case nd.size <= t.opts.LeafWrap:
		return t.flatten(nd)
	}
	return nd
}

// skeletonFor retrieves the update skeleton with a depth adapted to the
// batch size (same canonicalization argument as effLambda: depth choice
// affects only the fan-out of one sieve round, never the final structure).
func (t *Tree) skeletonFor(nd *node, region geom.Box, batch int) *skeleton {
	lam := t.opts.SkeletonLevels
	for lam > 1 && 1<<(lam*t.opts.Dims) > batch {
		lam--
	}
	return t.retrieve(nd, region, lam)
}

// recompute refreshes an owned interior node's size and bbox from its children.
func recompute(nd *node, dims int) {
	size := 0
	bbox := geom.EmptyBox(dims)
	for _, c := range nd.kids {
		if c != nil {
			size += c.size
			bbox = bbox.Union(c.bbox, dims)
		}
	}
	nd.size = size
	nd.bbox = bbox
}

// removeFromLeaf removes one occurrence per requested point (multiset
// semantics) from the leaf, made t's own, and refreshes its size and bbox.
func (t *Tree) removeFromLeaf(nd *node, pts []geom.Point) *node {
	nd = t.own(nd)
	nd.pts = geom.RemoveEach(nd.pts, pts)
	nd.size = len(nd.pts)
	nd.bbox = geom.BoundingBox(nd.pts, t.opts.Dims)
	return nd
}
