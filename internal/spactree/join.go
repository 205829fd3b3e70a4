package spactree

import "repro/internal/core"

// Join-based rebalancing (Alg. 4 lines 20-31), following the
// weight-balanced join of Blelloch, Ferizovic & Sun [17] as adapted by
// PaC-trees [23]: Join is the only rebalancing primitive; RightJoin
// descends the right spine of the heavier left tree until the remainder
// balances with the right tree, attaches, and repairs with single or
// double rotations on the way out. All node creation funnels through
// mkNode, so the leaf-wrap invariant is maintained at every step, and all
// expose calls restore in-leaf order lazily.

// join returns a balanced tree over l ∪ {k} ∪ r, assuming every entry in l
// is <= k and every entry in r is >= k (weak BST invariant on the total
// (code, point) order).
func (t *tree[S]) join(l *node[S], k Entry[S], r *node[S], c *cow) *node[S] {
	if t.balancedNodes(l, r) {
		return t.mkNode(l, k, r)
	}
	if weight(l) > weight(r) {
		return t.joinRight(l, k, r, c)
	}
	return t.joinLeft(l, k, r, c)
}

// joinRight handles the case weight(l) > weight(r).
func (t *tree[S]) joinRight(l *node[S], k Entry[S], r *node[S], c *cow) *node[S] {
	if t.balancedNodes(l, r) {
		return t.mkNode(l, k, r)
	}
	ll, lk, lr := t.expose(l, c)
	tt := t.joinRight(lr, k, r, c)
	if t.balancedNodes(ll, tt) {
		return t.mkNode(ll, lk, tt)
	}
	// Rebalance by rotation (Alg. 4 line 30).
	tl, tk, tr := t.expose(tt, c)
	if t.likeWeights(weight(ll)+weight(tl), weight(tr)) && t.balancedNodes(ll, tl) {
		// Single left rotation.
		return t.mkNode(t.mkNode(ll, lk, tl), tk, tr)
	}
	// Double rotation: rotate tl right, then left.
	tll, tlk, tlr := t.expose(tl, c)
	return t.mkNode(t.mkNode(ll, lk, tll), tlk, t.mkNode(tlr, tk, tr))
}

// joinLeft mirrors joinRight for weight(r) > weight(l).
func (t *tree[S]) joinLeft(l *node[S], k Entry[S], r *node[S], c *cow) *node[S] {
	if t.balancedNodes(l, r) {
		return t.mkNode(l, k, r)
	}
	rl, rk, rr := t.expose(r, c)
	tt := t.joinLeft(l, k, rl, c)
	if t.balancedNodes(tt, rr) {
		return t.mkNode(tt, rk, rr)
	}
	tl, tk, tr := t.expose(tt, c)
	if t.likeWeights(weight(tl), weight(tr)+weight(rr)) && t.balancedNodes(tr, rr) {
		// Single right rotation.
		return t.mkNode(tl, tk, t.mkNode(tr, rk, rr))
	}
	trl, trk, trr := t.expose(tr, c)
	return t.mkNode(t.mkNode(tl, tk, trl), trk, t.mkNode(trr, rk, rr))
}

// splitLast removes and returns the greatest entry of a non-nil tree.
func (t *tree[S]) splitLast(nd *node[S], c *cow) (*node[S], Entry[S]) {
	if nd.isLeaf() {
		ents := t.sortedEnts(nd, c)
		last := ents[len(ents)-1]
		if len(ents) == 1 {
			return nil, last
		}
		rest := make([]Entry[S], len(ents)-1)
		copy(rest, ents)
		return t.newLeaf(rest, true), last
	}
	if nd.right == nil {
		return nd.left, nd.pivot
	}
	rest, last := t.splitLast(nd.right, c)
	return t.join(nd.left, nd.pivot, rest, c), last
}

// join2 joins two trees with no middle entry (used when a batch deletion
// consumes a pivot).
func (t *tree[S]) join2(l, r *node[S], c *cow) *node[S] {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	rest, k := t.splitLast(l, c)
	return t.join(rest, k, r, c)
}

// splitRun extracts every copy of entry e from the subtree: it returns the
// tree of entries strictly below e, the tree strictly above, and the
// number of copies removed. Duplicate entries (identical code and point)
// may straddle pivots on both sides, so plain routing cannot delete them;
// batch deletion calls this on the rare equal-to-pivot runs.
func (t *tree[S]) splitRun(nd *node[S], e Entry[S], c *cow) (lt, gt *node[S], count int) {
	if nd == nil {
		return nil, nil, 0
	}
	if nd.isLeaf() {
		lo := make([]Entry[S], 0, len(nd.ents))
		hi := make([]Entry[S], 0, len(nd.ents))
		for _, x := range nd.ents {
			switch o := cmpEntry(x, e); {
			case o < 0:
				lo = append(lo, x)
			case o > 0:
				hi = append(hi, x)
			default:
				count++
			}
		}
		if len(lo) > 0 {
			lt = t.newLeaf(core.FitBlock(lo), nd.sorted)
		}
		if len(hi) > 0 {
			gt = t.newLeaf(core.FitBlock(hi), nd.sorted)
		}
		return lt, gt, count
	}
	switch o := cmpEntry(e, nd.pivot); {
	case o < 0:
		llt, lgt, n := t.splitRun(nd.left, e, c)
		return llt, t.join(lgt, nd.pivot, nd.right, c), n
	case o > 0:
		rlt, rgt, n := t.splitRun(nd.right, e, c)
		return t.join(nd.left, nd.pivot, rlt, c), rgt, n
	default:
		// The pivot itself is a copy; copies may extend into both
		// subtrees (left holds <= pivot, right holds >= pivot).
		llt, _, nl := t.splitRun(nd.left, e, c)
		_, rgt, nr := t.splitRun(nd.right, e, c)
		return llt, rgt, nl + nr + 1
	}
}
