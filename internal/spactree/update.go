package spactree

import (
	"slices"
	"sort"

	"repro/internal/geom"
)

// upperBound returns the first index in sorted batch with entry > e.
func upperBound[S geom.Packed](batch []Entry[S], e Entry[S]) int {
	return sort.Search(len(batch), func(i int) bool { return cmpEntry(batch[i], e) > 0 })
}

// lowerBound returns the first index in sorted batch with entry >= e.
func lowerBound[S geom.Packed](batch []Entry[S], e Entry[S]) int {
	return sort.Search(len(batch), func(i int) bool { return cmpEntry(batch[i], e) >= 0 })
}

// insertSorted is InsertSorted (Alg. 4): route the sorted batch down by
// pivot codes, absorb or rebuild at leaves, Join on the way back up.
func (t *tree[S]) insertSorted(nd *node[S], batch []Entry[S]) *node[S] {
	if len(batch) == 0 {
		return nd
	}
	if nd == nil {
		return t.buildSortedEnts(batch)
	}
	phi := t.opts.LeafWrap
	if nd.isLeaf() {
		total := nd.size + len(batch)
		if total <= phi {
			// Lines 8-11: absorb. SPaC mode appends and marks the leaf
			// unsorted — the whole point of the partial-order relaxation;
			// CPAM mode pays for a sorted merge on every touch.
			if t.mode == TotalOrder {
				return t.mergeLeaf(nd, batch)
			}
			return t.absorb(nd, batch)
		}
		if total <= 4*phi {
			// §C heuristic, small side: localized rebuild. A sorted leaf
			// (every CPAM leaf) merges with the batch; an unsorted one
			// pays its deferred sort here.
			all := t.leafEnts(make([]Entry[S], 0, 4*leafScratch), nd, true)
			if nd.sorted {
				all = mergeSorted(make([]Entry[S], 0, 4*leafScratch), all, batch)
			} else {
				all = append(all, batch...)
				sortLeaf(all)
			}
			t.free(nd)
			return t.buildSmall(all)
		}
		// §C heuristic, large side: expose the leaf and distribute the
		// batch across its halves instead of merging a huge run.
		l, k, r := t.expose(nd)
		i := upperBound(batch, k)
		nl, nr := t.both(false, len(batch) >= seqCutoff, l, batch[:i], r, batch[i:])
		return t.join(nl, k, nr)
	}
	// Lines 13-19: binary-search the pivot in the batch, recurse in
	// parallel, Join rebalances.
	i := upperBound(batch, nd.pivot)
	l, r := t.both(false, len(batch) >= seqCutoff, nd.left, batch[:i], nd.right, batch[i:])
	return t.joinInto(nd, l, r)
}

// joinInto is Join(l, pivot, r) with an in-place fast path: when the
// children stayed balanced and the subtree is too large to flatten (more
// than φ), Join would build exactly rawNode(l, pivot, r) — mkNode
// redistributes only a pair out of balance — so the existing interior
// node is kept rather than reallocated: updated in place when the tree
// owns it, copied once when it is shared (the copy is owned for the rest
// of the generation, and counted; the original retired), and returned as
// it is when it is shared
// and both recursions came back with the children it already has: no
// child is newer than its parent, so those were not written either. Only
// the rebalancing path pays for fresh nodes; the trees are identical.
func (t *tree[S]) joinInto(nd *node[S], l, r *node[S]) *node[S] {
	if t.balancedNodes(l, r) {
		if n := sizeOf(l) + sizeOf(r) + 1; n > t.opts.LeafWrap {
			if !t.owns(nd) {
				if l == nd.left && r == nd.right {
					return nd
				}
				t.NoteCopies(1, 0)
				k := nd.pivot
				t.free(nd)
				return t.rawNode(l, k, r)
			}
			nd.left, nd.right = l, r
			nd.size = n
			nd.bbox = t.interiorBBox(l, nd.pivot, r)
			return nd
		}
	}
	k := nd.pivot
	t.free(nd)
	return t.join(l, k, r)
}

// absorb appends a batch to a PartialOrder leaf's block and marks the
// leaf unsorted; a shared leaf's points move to a block of its own first,
// and the leaf is retired.
func (t *tree[S]) absorb(nd *node[S], batch []Entry[S]) *node[S] {
	bbox := nd.bbox
	pts := nd.pts
	mine := t.owns(nd)
	if !mine {
		t.NoteCopies(1, uint64(len(pts)))
		pts = slices.Clip(pts)
		t.free(nd)
		nd = t.NewNode(node[S]{gen: t.Gen})
	}
	pts = t.Blocks().Grow(pts, len(batch), t.opts.LeafWrap, mine)
	for _, e := range batch {
		pts = append(pts, e.P)
		bbox = bbox.Extend(e.P)
	}
	nd.pts = pts
	nd.size = len(pts)
	nd.bbox = bbox
	nd.sorted = false
	return nd
}

// mergeLeaf is the CPAM absorb: a new leaf of a TotalOrder leaf's entries
// and a batch, merged from the leaf's block straight into the new one.
func (t *tree[S]) mergeLeaf(nd *node[S], batch []Entry[S]) *node[S] {
	pts, codes := nd.points(), nd.pts[nd.size:]
	n := len(pts) + len(batch)
	blk := t.Blocks().Make(2 * n)
	bbox := nd.bbox
	for k, i, j := 0, 0, 0; k < n; k++ {
		if j == len(batch) || i < len(pts) && cmpEntry(Entry[S]{slotCode(codes[i]), pts[i]}, batch[j]) <= 0 {
			blk[k], blk[n+k] = pts[i], codes[i]
			i++
		} else {
			blk[k], blk[n+k] = batch[j].P, codeSlot[S](batch[j].Code)
			bbox = bbox.Extend(batch[j].P)
			j++
		}
	}
	t.free(nd)
	return t.NewNode(node[S]{size: n, gen: t.Gen, bbox: bbox, pts: blk, sorted: true})
}

// mergeSorted appends to out the merge of two entry slices sorted by
// cmpEntry.
func mergeSorted[S geom.Packed](out, a, b []Entry[S]) []Entry[S] {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if cmpEntry(a[i], b[j]) <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// deleteSorted removes one stored occurrence per batch entry (§4.2: "when
// it reaches a leaf, it removes the points there, marks the leaf as
// unsorted if necessary, and updates the bounding box"; rebalancing via
// Join/Join2 as in insertion).
func (t *tree[S]) deleteSorted(nd *node[S], batch []Entry[S]) *node[S] {
	if nd == nil || len(batch) == 0 {
		return nd
	}
	if nd.isLeaf() {
		return t.deleteFromLeaf(nd, batch)
	}
	lo := lowerBound(batch, nd.pivot)
	hi := upperBound(batch, nd.pivot)
	l, r := t.both(true, len(batch) >= seqCutoff, nd.left, batch[:lo], nd.right, batch[hi:])
	if lo == hi {
		// Pivot not targeted: plain split-recurse-join.
		return t.joinInto(nd, l, r)
	}
	// The batch deletes copies of the pivot entry itself. Copies of an
	// identical entry may sit on both sides of the pivot, so plain
	// routing cannot find them all: extract the whole run, then put back
	// whatever the batch did not consume.
	k := nd.pivot
	t.free(nd)
	req := hi - lo
	l, cl := t.splitRun(l, k)
	r, cr := t.splitRun(r, k)
	avail := cl + cr + 1 // + the pivot itself
	leftover := avail - req
	if leftover < 0 {
		leftover = 0
	}
	res := t.join2(l, r)
	if leftover > 0 {
		run := make([]Entry[S], leftover)
		for i := range run {
			run[i] = k
		}
		res = t.insertSorted(res, run)
	}
	return res
}

// deleteFromLeaf removes multiset matches from a leaf. In PartialOrder
// mode a leaf is matched by point alone — equal points have equal codes —
// and the removal is an in-place swap-delete: the leaf just goes unsorted,
// exactly the freedom §4.2 grants deletions ("removes the points there,
// marks the leaf as unsorted if necessary"), and a leaf left with less than
// half its block moves into a fitted one. TotalOrder (CPAM) mode must keep
// the leaf sorted, so it pays for an order-preserving compaction into a
// new leaf, merging its stored entries with the sorted batch.
func (t *tree[S]) deleteFromLeaf(nd *node[S], batch []Entry[S]) *node[S] {
	if t.mode == PartialOrder {
		pts := nd.pts
		mine := t.owns(nd) // pts may be written
		for _, b := range batch {
			for i := range pts {
				if pts[i] == b.P {
					if !mine {
						// A shared leaf: the first match moves the removal
						// to a copy of the block.
						t.NoteCopies(1, uint64(len(pts)))
						cp := t.Blocks().Make(len(pts))
						copy(cp, pts)
						pts, mine = cp, true
					}
					pts[i] = pts[len(pts)-1]
					pts = pts[:len(pts)-1]
					break
				}
			}
		}
		if len(pts) == nd.size {
			return nd
		}
		// pts is t's own now: the leaf's block or the copy. A shared leaf
		// is retired (free).
		if len(pts) == 0 {
			if !t.owns(nd) {
				t.Blocks().Put(pts)
			}
			t.free(nd)
			return nil
		}
		if !t.owns(nd) {
			t.free(nd)
			nd = t.NewNode(node[S]{gen: t.Gen})
		}
		nd.pts = t.Blocks().Fit(pts, true) // pts may be recycled now
		nd.size = len(nd.pts)
		nd.sorted = false
		nd.bbox = geom.PackedBounds(nd.pts)
		return nd
	}
	// Leaf and batch are both sorted: one merge pass matches each batch
	// entry to at most one stored copy. The kept points go to the front
	// of a new block and their codes to its back half, closed up once
	// their number is known.
	pts, codes := nd.points(), nd.pts[nd.size:]
	m := len(pts)
	blk := t.Blocks().Make(2 * m)
	n, j := 0, 0
	for i, p := range pts {
		e := Entry[S]{Code: slotCode(codes[i]), P: p}
		for j < len(batch) && cmpEntry(batch[j], e) < 0 {
			j++
		}
		if j < len(batch) && cmpEntry(batch[j], e) == 0 {
			j++
			continue
		}
		blk[n], blk[m+n] = p, codes[i]
		n++
	}
	if n == m {
		t.Blocks().Put(blk)
		return nd
	}
	t.free(nd)
	if n == 0 {
		t.Blocks().Put(blk)
		return nil
	}
	copy(blk[n:], blk[m:m+n])
	blk = t.Blocks().Fit(blk[:2*n], true)
	return t.NewNode(node[S]{size: n, gen: t.Gen, bbox: geom.PackedBounds(blk[:n]), pts: blk, sorted: true})
}

// LeafStats reports how many leaves exist and how many are currently
// marked unsorted — the observable footprint of the partial-order
// relaxation (used by tests and the ablation benches).
func (t *tree[S]) LeafStats() (leaves, unsorted int) {
	var walk func(nd *node[S])
	walk = func(nd *node[S]) {
		if nd == nil {
			return
		}
		if nd.isLeaf() {
			leaves++
			if !nd.sorted {
				unsorted++
			}
			return
		}
		walk(nd.left)
		walk(nd.right)
	}
	walk(t.root)
	return
}

// Height returns the tree height (leaf = 1).
func (t *tree[S]) Height() int { return heightOf(t.root) }

func heightOf[S geom.Packed](nd *node[S]) int {
	if nd == nil {
		return 0
	}
	if nd.isLeaf() {
		return 1
	}
	l, r := heightOf(nd.left), heightOf(nd.right)
	if r > l {
		l = r
	}
	return l + 1
}
