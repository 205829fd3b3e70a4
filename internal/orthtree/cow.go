package orthtree

import (
	"repro/internal/core"
	"repro/internal/geom"
)

// Copy-on-write by generation stamp, under internal/core's Handle, which
// holds the protocol: the generations, the pool, the retire rule and
// Adopt's reclaim. Alg. 2 writes only nodes on the paths a batch reaches,
// and each of them is one own has handed back: a node of another
// generation comes back as a stamped copy — an interior node with its
// child slots, a leaf with its points — which the caller links where the
// original was. The sites are the leaf absorb of insert, removeFromLeaf,
// the roots of insertSmall, deleteSmall and both skeleton paths, and every
// interior node enumerate descends into; recompute and the child-slot
// writes only see their results. Validate checks that no node is newer
// than the tree that reaches it and no child newer than its parent.
//
// The original own copies goes to retire, and the subtrees a split, a
// flatten or an emptied leaf replaces to drop; NewNode, newLeaf, the grows
// and the child arrays build from the pool. A leaf that overflows with few
// points splits on the stack (buildSmall); a flattened subtree's root
// becomes the leaf in place. The pool's scratch keeps the batch's narrowed
// points, the sieve buffer, the skeletons and the child arrays.

// scratch is a P-Orth tree's part of its pool: a batch's narrowed points
// and the sieve's buffer (core.Scratch), the skeletons of large batches
// with their sieve scratch, and interior nodes' child arrays.
type scratch[S geom.Packed] struct {
	ins, del, buf []S
	skels         core.FreeList[skeleton[S]]
	kids          core.Recycler[*node[S]]
}

// own returns nd when t may write it in place, and otherwise a copy
// stamped with t's generation, counted in Copied, retiring nd.
func (t *tree[S]) own(nd *node[S]) *node[S] {
	if t.Owns(nd.gen) {
		return nd
	}
	cp := t.NewNode(node[S]{gen: t.Gen, size: nd.size, bbox: nd.bbox})
	if nd.isLeaf() {
		cp.pts = t.Blocks().Make(len(nd.pts))
		copy(cp.pts, nd.pts)
	} else {
		cp.kids = t.newKids()
		copy(cp.kids, nd.kids)
	}
	t.NoteCopies(1, uint64(len(nd.pts)))
	t.retire(nd)
	return cp
}

// unwrap returns the tree[S] behind idx, when idx is a Tree storing S.
func unwrap[S geom.Packed](idx core.Index) (*tree[S], bool) {
	w, ok := idx.(*Tree)
	if !ok {
		return nil, false
	}
	t, ok := w.body.(*tree[S])
	return t, ok
}

// NewReplica implements core.Adopter: a fresh, empty tree over the same
// options.
func (t *tree[S]) NewReplica() core.Index { return New(t.opts) }

// Adopt implements core.Adopter: t drops its contents and becomes a second
// handle on src's, in O(1) and without allocating. It refuses — false,
// nothing changed — unless src is a P-Orth tree over the same options.
// Queries may run on either tree throughout; updates of either must not,
// and queries on t's old contents must have ended before either is next
// updated (core.Handle.Adopt).
func (t *tree[S]) Adopt(src core.Index) bool {
	o, ok := unwrap[S](src)
	if !ok || o.opts != t.opts {
		return false
	}
	if o != t {
		t.Handle.Adopt(&o.Handle, t.root, recycle)
		t.root = o.root
	}
	return true
}

// Shares implements core.Adopter: whether t and o are handles on one
// structure right now — the state Adopt leaves, until either is updated.
func (t *tree[S]) Shares(o core.Index) bool {
	ot, ok := unwrap[S](o)
	return ok && ot.root == t.root
}

// newKids returns an interior node's child array, of nil children: one
// the running update recycled, or a new one.
func (t *tree[S]) newKids() []*node[S] {
	if p := t.Pool(); p != nil {
		return p.X.kids.Make(t.nway)
	}
	return make([]*node[S], t.nway)
}

// drop retires every node of the subtree nd, for a caller that has copied
// their points out and replaces the subtree, down to the first node the
// update does not take (core.Handle.Takes).
func (t *tree[S]) drop(nd *node[S]) {
	if nd == nil || !t.Takes(nd.gen) {
		return
	}
	for _, c := range nd.kids {
		t.drop(c)
	}
	t.retire(nd)
}

// retire takes nd, which the running update replaced, from it
// (core.Handle.Free), but not its subtree.
func (t *tree[S]) retire(nd *node[S]) { t.Free(nd, nd.gen, recycle) }

// recycle gives the pool a leaf's block or an interior node's child
// array; nothing else may reach it.
func recycle[S geom.Packed](p *core.Pool[node[S], S, scratch[S]], nd *node[S]) {
	if nd.isLeaf() {
		p.Blocks.Put(nd.pts)
	} else {
		clear(nd.kids)
		p.X.kids.Put(nd.kids)
	}
}
