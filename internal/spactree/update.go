package spactree

import (
	"slices"
	"sort"

	"repro/internal/core"
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
func (t *tree[S]) insertSorted(nd *node[S], batch []Entry[S], c *cow) *node[S] {
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
				merged := mergeSorted(nd.ents, batch)
				return t.newLeaf(merged, true)
			}
			bbox := nd.bbox
			for _, e := range batch {
				bbox = bbox.Extend(e.P)
			}
			ents := nd.ents
			if !t.owns(nd) {
				// A shared leaf: the append goes into a block of its own.
				copied(c, ents)
				ents = slices.Clip(ents)
				nd = &node[S]{gen: t.gen}
			}
			nd.ents = append(core.GrowBlock(ents, len(batch), phi), batch...)
			nd.size = len(nd.ents)
			nd.bbox = bbox
			nd.sorted = false
			return nd
		}
		if total <= 4*phi {
			// §C heuristic, small side: localized rebuild.
			var all []Entry[S]
			if t.mode == TotalOrder {
				all = mergeSorted(nd.ents, batch)
			} else {
				all = make([]Entry[S], 0, total)
				all = append(all, nd.ents...)
				all = append(all, batch...)
				sortEntries(all)
			}
			return t.buildSortedEnts(all)
		}
		// §C heuristic, large side: expose the leaf and distribute the
		// batch across its halves instead of merging a huge run.
		l, k, r := t.expose(nd, c)
		i := upperBound(batch, k)
		nl, nr := t.both(false, len(batch) >= seqCutoff, l, batch[:i], r, batch[i:], c)
		return t.join(nl, k, nr, c)
	}
	// Lines 13-19: binary-search the pivot in the batch, recurse in
	// parallel, Join rebalances.
	i := upperBound(batch, nd.pivot)
	l, r := t.both(false, len(batch) >= seqCutoff, nd.left, batch[:i], nd.right, batch[i:], c)
	return t.joinInto(nd, l, r, c)
}

// joinInto is Join(l, pivot, r) with an in-place fast path: when the
// children stayed balanced and no leaf-wrap action applies, the existing
// interior node is kept rather than reallocated — updated in place when
// the tree owns it, copied once when it is shared (the copy is owned for
// the rest of the generation), and returned as it is when it is shared and
// both recursions came back with the children it already has: no child is
// newer than its parent, so those were not written either. Only the
// rebalancing path pays for fresh nodes; the joins are semantically
// identical.
func (t *tree[S]) joinInto(nd *node[S], l, r *node[S], c *cow) *node[S] {
	if t.balancedNodes(l, r) {
		if n := sizeOf(l) + sizeOf(r) + 1; n > 2*t.opts.LeafWrap {
			if !t.owns(nd) {
				if l == nd.left && r == nd.right {
					return nd
				}
				c.nodes++
				return t.rawNode(l, nd.pivot, r)
			}
			nd.left, nd.right = l, r
			nd.size = n
			nd.bbox = t.interiorBBox(l, nd.pivot, r)
			return nd
		}
	}
	return t.join(l, nd.pivot, r, c)
}

// mergeSorted merges two entry slices sorted by cmpEntry.
func mergeSorted[S geom.Packed](a, b []Entry[S]) []Entry[S] {
	out := make([]Entry[S], 0, len(a)+len(b))
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
func (t *tree[S]) deleteSorted(nd *node[S], batch []Entry[S], c *cow) *node[S] {
	if nd == nil || len(batch) == 0 {
		return nd
	}
	if nd.isLeaf() {
		return t.deleteFromLeaf(nd, batch, c)
	}
	lo := lowerBound(batch, nd.pivot)
	hi := upperBound(batch, nd.pivot)
	l, r := t.both(true, len(batch) >= seqCutoff, nd.left, batch[:lo], nd.right, batch[hi:], c)
	if lo == hi {
		// Pivot not targeted: plain split-recurse-join.
		return t.joinInto(nd, l, r, c)
	}
	// The batch deletes copies of the pivot entry itself. Copies of an
	// identical entry may sit on both sides of the pivot, so plain
	// routing cannot find them all: extract the whole run, then put back
	// whatever the batch did not consume.
	req := hi - lo
	ll, lg, cl := t.splitRun(l, nd.pivot, c)
	rl, rg, cr := t.splitRun(r, nd.pivot, c)
	avail := cl + cr + 1 // + the pivot itself
	leftover := avail - req
	if leftover < 0 {
		leftover = 0
	}
	res := t.join2(t.join2(ll, lg, c), t.join2(rl, rg, c), c)
	if leftover > 0 {
		run := make([]Entry[S], leftover)
		for i := range run {
			run[i] = nd.pivot
		}
		res = t.insertSorted(res, run, c)
	}
	return res
}

// deleteFromLeaf removes multiset matches from a leaf. In PartialOrder
// mode the removal is an in-place swap-delete — the leaf just goes
// unsorted, exactly the freedom §4.2 grants deletions ("removes the
// points there, marks the leaf as unsorted if necessary"). TotalOrder
// (CPAM) mode must keep the leaf sorted, so it pays for an order-
// preserving compaction. Either way a leaf left with less than half its
// block moves into a fitted one.
func (t *tree[S]) deleteFromLeaf(nd *node[S], batch []Entry[S], c *cow) *node[S] {
	if t.mode == PartialOrder {
		ents := nd.ents
		mine := t.owns(nd) // ents may be written
		for _, b := range batch {
			for i := range ents {
				if ents[i].Code == b.Code && ents[i].P == b.P {
					if !mine {
						// A shared leaf: the first match moves the removal
						// to a copy of the block.
						copied(c, ents)
						ents, mine = slices.Clone(ents), true
					}
					ents[i] = ents[len(ents)-1]
					ents = ents[:len(ents)-1]
					break
				}
			}
		}
		if len(ents) == len(nd.ents) {
			return nd
		}
		if len(ents) == 0 {
			return nil
		}
		if !t.owns(nd) {
			nd = &node[S]{gen: t.gen}
		}
		nd.ents = core.FitBlock(ents)
		nd.size = len(ents)
		nd.sorted = false
		nd.bbox = entsBBox(ents)
		return nd
	}
	used := make([]bool, len(batch))
	kept := make([]Entry[S], 0, len(nd.ents))
	for _, e := range nd.ents {
		matched := false
		lo := lowerBound(batch, e)
		for j := lo; j < len(batch) && cmpEntry(batch[j], e) == 0; j++ {
			if !used[j] {
				used[j] = true
				matched = true
				break
			}
		}
		if !matched {
			kept = append(kept, e)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	if len(kept) == len(nd.ents) {
		return nd
	}
	return t.newLeaf(core.FitBlock(kept), nd.sorted)
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
