package spactree

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
func (t *tree[S]) join(l *node[S], k Entry[S], r *node[S]) *node[S] {
	if t.balancedNodes(l, r) {
		return t.mkNode(l, k, r)
	}
	if weight(l) > weight(r) {
		return t.joinRight(l, k, r)
	}
	return t.joinLeft(l, k, r)
}

// joinRight handles the case weight(l) > weight(r).
func (t *tree[S]) joinRight(l *node[S], k Entry[S], r *node[S]) *node[S] {
	if t.balancedNodes(l, r) {
		return t.mkNode(l, k, r)
	}
	ll, lk, lr := t.expose(l)
	tt := t.joinRight(lr, k, r)
	if t.balancedNodes(ll, tt) {
		return t.mkNode(ll, lk, tt)
	}
	// Rebalance by rotation (Alg. 4 line 30).
	tl, tk, tr := t.expose(tt)
	if t.likeWeights(weight(ll)+weight(tl), weight(tr)) && t.balancedNodes(ll, tl) {
		// Single left rotation.
		return t.mkNode(t.mkNode(ll, lk, tl), tk, tr)
	}
	// Double rotation: rotate tl right, then left.
	tll, tlk, tlr := t.expose(tl)
	return t.mkNode(t.mkNode(ll, lk, tll), tlk, t.mkNode(tlr, tk, tr))
}

// joinLeft mirrors joinRight for weight(r) > weight(l).
func (t *tree[S]) joinLeft(l *node[S], k Entry[S], r *node[S]) *node[S] {
	if t.balancedNodes(l, r) {
		return t.mkNode(l, k, r)
	}
	rl, rk, rr := t.expose(r)
	tt := t.joinLeft(l, k, rl)
	if t.balancedNodes(tt, rr) {
		return t.mkNode(tt, rk, rr)
	}
	tl, tk, tr := t.expose(tt)
	if t.likeWeights(weight(tl), weight(tr)+weight(rr)) && t.balancedNodes(tr, rr) {
		// Single right rotation.
		return t.mkNode(tl, tk, t.mkNode(tr, rk, rr))
	}
	trl, trk, trr := t.expose(tr)
	return t.mkNode(t.mkNode(tl, tk, trl), trk, t.mkNode(trr, rk, rr))
}

// splitLast removes and returns the greatest entry of a non-nil tree. A
// sorted leaf ends with it; an unsorted one is searched, and what is left
// of it stays unsorted.
func (t *tree[S]) splitLast(nd *node[S]) (*node[S], Entry[S]) {
	if nd.isLeaf() {
		ents := t.leafEnts(make([]Entry[S], 0, leafScratch), nd, !nd.sorted)
		i := len(ents) - 1
		if !nd.sorted {
			for j := range ents {
				if cmpEntry(ents[j], ents[i]) > 0 {
					i = j
				}
			}
		}
		last, srt := t.encodePacked(ents[i].P), nd.sorted
		t.free(nd)
		if len(ents) == 1 {
			return nil, last
		}
		ents[i] = ents[len(ents)-1]
		return t.newLeaf(ents[:len(ents)-1], srt), last
	}
	l, k, r := nd.left, nd.pivot, nd.right
	t.free(nd)
	if r == nil {
		return l, k
	}
	rest, last := t.splitLast(r)
	return t.join(l, k, rest), last
}

// join2 joins two trees with no middle entry (used when a batch deletion
// consumes a pivot).
func (t *tree[S]) join2(l, r *node[S]) *node[S] {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	rest, k := t.splitLast(l)
	return t.join(rest, k, r)
}

// splitRun removes every copy of entry e from a subtree that holds no
// entries on both sides of e — a subtree of a node whose pivot is e, as
// batch deletion calls it — and returns what is left and the number of
// copies removed. Duplicate entries (identical code and point) may
// straddle pivots on both sides, so plain routing cannot delete them;
// batch deletion calls this when it deletes a pivot. Equal points have
// equal codes, so a leaf is filtered by point alone and keeps its order.
func (t *tree[S]) splitRun(nd *node[S], e Entry[S]) (*node[S], int) {
	if nd == nil {
		return nil, 0
	}
	if nd.isLeaf() {
		ents := t.leafEnts(make([]Entry[S], 0, leafScratch), nd, false)
		kept := ents[:0]
		for _, x := range ents {
			if x.P != e.P {
				kept = append(kept, x)
			}
		}
		n, srt := len(ents)-len(kept), nd.sorted
		if n == 0 {
			return nd, 0
		}
		t.free(nd)
		if len(kept) == 0 {
			return nil, n
		}
		return t.newLeaf(kept, srt), n
	}
	l, k, r := nd.left, nd.pivot, nd.right
	switch o := cmpEntry(e, k); {
	case o < 0:
		nl, n := t.splitRun(l, e)
		if n == 0 {
			return nd, 0
		}
		t.free(nd)
		return t.join(nl, k, r), n
	case o > 0:
		nr, n := t.splitRun(r, e)
		if n == 0 {
			return nd, 0
		}
		t.free(nd)
		return t.join(l, k, nr), n
	default:
		// The pivot itself is a copy; copies may extend into both
		// subtrees (left holds <= pivot, right holds >= pivot).
		t.free(nd)
		nl, cl := t.splitRun(l, e)
		nr, cr := t.splitRun(r, e)
		return t.join2(nl, nr), cl + cr + 1
	}
}
