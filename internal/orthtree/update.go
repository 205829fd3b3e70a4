package orthtree

import (
	"math"

	"repro/internal/core"
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
type skeleton[S geom.Packed] struct {
	nodes []skelNode[S]
	mids  []geom.Point
	slots []slot[S]
	table []int32
	nway  int
	sieve parallel.SieveScratch
	// routeFn is route as a func value, made once per skeleton: a method
	// value passed to the sieve would be made at every batch.
	routeFn func(p S) int
}

type skelNode[S geom.Packed] struct {
	tn         *node[S]
	parentSkel int32 // index into nodes; -1 for the skeleton root
	childIdx   int32 // position of this node in its parent's kids
}

type slot[S geom.Packed] struct {
	parent   *node[S] // interior node owning this child pointer
	childIdx int
	child    *node[S] // may be nil (empty orthant) or a subtree root
	region   geom.Box
}

// retrieve builds the skeleton of interior node nd down to depth lam into
// sk, its arrays sized at the first use for the worst-case fan-out of the
// tree's λ so that enumeration never regrows them. nd and every skeleton
// node below it are t's own (cow.go).
func (t *tree[S]) retrieve(sk *skeleton[S], nd *node[S], region geom.Box, lam int) {
	if sk.nodes == nil {
		maxSlots := 1
		for i := 0; i < t.opts.SkeletonLevels; i++ {
			maxSlots *= t.nway
		}
		maxNodes := (maxSlots - 1) / (t.nway - 1)
		sk.nodes = make([]skelNode[S], 0, maxNodes)
		sk.mids = make([]geom.Point, 0, maxNodes)
		sk.slots = make([]slot[S], 0, maxSlots)
		sk.table = make([]int32, 0, maxNodes*t.nway)
		sk.nway = t.nway
		sk.routeFn = sk.route
	}
	sk.enumerate(t, nd, region, 0, lam, -1, 0)
}

// skeletonFor retrieves the update skeleton with a depth adapted to the
// batch size (same canonicalization argument as effLambda: depth choice
// affects only the fan-out of one sieve round, never the final structure).
// It comes from the update's pool when that holds one, and release hands
// it back.
func (t *tree[S]) skeletonFor(nd *node[S], region geom.Box, batch int) *skeleton[S] {
	lam := t.opts.SkeletonLevels
	for lam > 1 && 1<<(lam*t.opts.Dims) > batch {
		lam--
	}
	var sk *skeleton[S]
	if p := t.Pool(); p != nil {
		sk = p.X.skels.Get()
	} else {
		sk = new(skeleton[S])
	}
	t.retrieve(sk, nd, region, lam)
	return sk
}

// release ends a branch's use of sk: it forgets the nodes it reached, so a
// kept skeleton pins none, drops a sieve scratch grown past
// core.ScratchCap, and gives it to the update's pool.
func (t *tree[S]) release(sk *skeleton[S]) {
	clear(sk.nodes)
	clear(sk.slots)
	sk.nodes, sk.mids, sk.slots, sk.table = sk.nodes[:0], sk.mids[:0], sk.slots[:0], sk.table[:0]
	if sk.sieve.Held() > core.ScratchCap {
		sk.sieve = parallel.SieveScratch{}
	}
	if p := t.Pool(); p != nil {
		p.X.skels.Put(sk)
	}
}

func (sk *skeleton[S]) enumerate(t *tree[S], nd *node[S], region geom.Box, level, lam int, parentSkel, childIdx int32) int32 {
	idx := int32(len(sk.nodes))
	sk.nodes = append(sk.nodes, skelNode[S]{tn: nd, parentSkel: parentSkel, childIdx: childIdx})
	dims := t.opts.Dims
	sk.mids = append(sk.mids, mids(region, dims))
	row := len(sk.table)
	sk.table = append(sk.table, make([]int32, sk.nway)...)
	for q := 0; q < t.nway; q++ {
		child := nd.kids[q]
		cregion := region.Child(q, dims)
		if level+1 == lam || child == nil || child.isLeaf() {
			sk.table[row+q] = int32(^len(sk.slots))
			sk.slots = append(sk.slots, slot[S]{parent: nd, childIdx: q, child: child, region: cregion})
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
func (sk *skeleton[S]) route(p S) int {
	i := int32(0)
	for {
		q := quadrant(&sk.mids[i], p)
		next := sk.table[int(i)*sk.nway+q]
		if next < 0 {
			return int(^next)
		}
		i = next
	}
}

// insert implements BatchInsertOrth (Alg. 2). pts/buf are scratch slices
// holding the batch; the returned node replaces nd.
func (t *tree[S]) insert(nd *node[S], pts, buf []S, region geom.Box) *node[S] {
	if len(pts) == 0 {
		return nd
	}
	if nd == nil {
		return t.build(pts, buf, region)
	}
	dims := t.opts.Dims
	if nd.isLeaf() {
		// Alg. 2 lines 3-4: a leaf either absorbs the batch or is rebuilt
		// together with it. The block of a leaf that may split grows no
		// larger than the leaf wrap; that of an oversized leaf over an
		// unsplittable region (duplicates) grows without bound.
		splittable := region.Splittable(dims)
		if nd.size+len(pts) <= t.opts.LeafWrap || !splittable {
			nd = t.own(nd)
			for _, p := range pts {
				nd.bbox = nd.bbox.Extend(p)
			}
			limit := t.opts.LeafWrap
			if !splittable {
				limit = math.MaxInt
			}
			nd.pts = append(t.Blocks().Grow(nd.pts, len(pts), limit, true), pts...)
			nd.size = len(nd.pts)
			return nd
		}
		if n := nd.size + len(pts); n <= smallBatch {
			// The common overflow: a leaf and a few points split on the
			// stack, the leaf's block recycled if it was t's.
			var a, b [smallBatch]S
			combined := append(append(a[:0], nd.pts...), pts...)
			t.drop(nd)
			return t.buildSmall(combined, b[:n], region)
		}
		combined := make([]S, 0, nd.size+len(pts))
		combined = append(combined, nd.pts...)
		combined = append(combined, pts...)
		t.drop(nd)
		return t.build(combined, make([]S, len(combined)), region)
	}
	if len(pts) < smallBatch {
		return t.insertSmall(nd, pts, buf, region)
	}

	// Lines 5-7: retrieve the skeleton and sieve the batch through it.
	nd = t.own(nd)
	sk := t.skeletonFor(nd, region, len(pts))
	defer t.release(sk)
	offsets := parallel.SieveWith(&sk.sieve, pts, buf, len(sk.slots), sk.routeFn)

	// Lines 8-10: recurse into every external slot in parallel. Distinct
	// slots write distinct child pointers, so the writes do not race.
	t.eachSlot(false, sk, offsets, pts, buf)

	// Line 11: refresh sizes and bounding boxes of the skeleton's
	// interior nodes, children before parents (reverse preorder).
	for j := len(sk.nodes) - 1; j >= 0; j-- {
		recompute(sk.nodes[j].tn)
	}
	return nd
}

// eachSlot recurses — delete when del is set, else insert — into every
// external slot of sk with the points the sieve moved to buf there
// (offsets), on the slots in parallel when the batch is worth it. The
// sequential case builds no closure, so a small batch allocates none.
func (t *tree[S]) eachSlot(del bool, sk *skeleton[S], offsets []int, pts, buf []S) {
	if len(pts) >= seqCutoff {
		parallel.ForEach(len(sk.slots), 1, func(i int) { t.slot(del, sk, offsets, pts, buf, i) })
		return
	}
	for i := range sk.slots {
		t.slot(del, sk, offsets, pts, buf, i)
	}
}

// slot is eachSlot's step for slot i.
func (t *tree[S]) slot(del bool, sk *skeleton[S], offsets []int, pts, buf []S, i int) {
	lo, hi := offsets[i], offsets[i+1]
	if lo == hi {
		return
	}
	s := &sk.slots[i]
	if del {
		s.parent.kids[s.childIdx] = t.delete(s.child, buf[lo:hi], pts[lo:hi], s.region)
	} else {
		s.parent.kids[s.childIdx] = t.insert(s.child, buf[lo:hi], pts[lo:hi], s.region)
	}
}

// splitSmall is the depth-1 skeleton of the small-batch paths: it
// partitions pts (fewer than smallBatch points) into buf by quadrant of
// region with stack-allocated counters; quadrant q lands in
// buf[offs[q]:offs[q+1]].
func (t *tree[S]) splitSmall(pts, buf []S, region geom.Box) (offs [9]int) {
	mid := mids(region, t.opts.Dims)
	var qb [smallBatch]uint8
	for i, p := range pts {
		q := quadrant(&mid, p)
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
func (t *tree[S]) insertSmall(nd *node[S], pts, buf []S, region geom.Box) *node[S] {
	nd = t.own(nd)
	dims := t.opts.Dims
	offs := t.splitSmall(pts, buf, region)
	for q := 0; q < t.nway; q++ {
		lo, hi := offs[q], offs[q+1]
		if lo < hi {
			nd.kids[q] = t.insert(nd.kids[q], buf[lo:hi], pts[lo:hi], region.Child(q, dims))
		}
	}
	recompute(nd)
	return nd
}

// delete is the symmetric batch deletion (§3.2): route the batch through
// the skeleton, remove matches in leaves, then collapse undersized
// subtrees into leaves on the way back up.
func (t *tree[S]) delete(nd *node[S], pts, buf []S, region geom.Box) *node[S] {
	if nd == nil || len(pts) == 0 {
		return nd
	}
	if nd.isLeaf() {
		nd = t.removeFromLeaf(nd, pts)
		if nd.size == 0 {
			t.drop(nd)
			return nil
		}
		return nd
	}
	if len(pts) < smallBatch {
		return t.deleteSmall(nd, pts, buf, region)
	}
	nd = t.own(nd)
	sk := t.skeletonFor(nd, region, len(pts))
	defer t.release(sk)
	offsets := parallel.SieveWith(&sk.sieve, pts, buf, len(sk.slots), sk.routeFn)
	t.eachSlot(true, sk, offsets, pts, buf)

	// Collapse pass: recompute each skeleton node bottom-up; nodes that
	// fell to zero become nil, nodes at or below the leaf wrap flatten
	// into leaves (the "additional step" of §3.2). Replacements propagate
	// into the parent's child slot; a replaced skeleton root is returned.
	root := nd
	for j := len(sk.nodes) - 1; j >= 0; j-- {
		sn := &sk.nodes[j]
		recompute(sn.tn)
		var repl *node[S]
		switch {
		case sn.tn.size == 0:
			t.retire(sn.tn) // t's own, its children all gone
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
func (t *tree[S]) deleteSmall(nd *node[S], pts, buf []S, region geom.Box) *node[S] {
	nd = t.own(nd)
	dims := t.opts.Dims
	offs := t.splitSmall(pts, buf, region)
	for q := 0; q < t.nway; q++ {
		lo, hi := offs[q], offs[q+1]
		if lo < hi {
			nd.kids[q] = t.delete(nd.kids[q], buf[lo:hi], pts[lo:hi], region.Child(q, dims))
		}
	}
	recompute(nd)
	switch {
	case nd.size == 0:
		t.retire(nd) // t's own, its children all gone
		return nil
	case nd.size <= t.opts.LeafWrap:
		return t.flatten(nd)
	}
	return nd
}

// recompute refreshes an owned interior node's size and bbox from its children.
func recompute[S geom.Packed](nd *node[S]) {
	size := 0
	bbox := geom.EmptyPacked[S]()
	for _, c := range nd.kids {
		if c != nil {
			size += c.size
			bbox = bbox.Union(c.bbox)
		}
	}
	nd.size = size
	nd.bbox = bbox
}

// removeFromLeaf removes one occurrence per requested point (multiset
// semantics) from the leaf, made t's own, and refreshes its size and bbox;
// a leaf left with less than half its block moves into a fitted one.
func (t *tree[S]) removeFromLeaf(nd *node[S], pts []S) *node[S] {
	nd = t.own(nd)
	nd.pts = t.Blocks().Fit(geom.RemoveEach(nd.pts, pts), true)
	nd.size = len(nd.pts)
	nd.bbox = geom.PackedBounds(nd.pts)
	return nd
}
