package orthtree

import (
	"repro/internal/core"
	"repro/internal/geom"
)

// Copy-on-write by generation stamp, under internal/core's Handle, which
// holds the protocol: the generations, the pool, the pinned views and the
// reclaim at unpin. Alg. 2 writes only nodes on the paths a batch reaches,
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

// Pin implements core.Versioned: a read-only view of t's contents.
func (t *tree[S]) Pin() core.Index {
	p := t.Handle.Pin()
	if p.View == nil {
		p.View = &Tree{&tree[S]{opts: t.opts, nway: t.nway}}
	}
	v := p.View.(*Tree).body.(*tree[S])
	v.Viewing(p)
	v.root = t.root
	return p.View
}

// Unpin implements core.Versioned: v, a view t pinned, is read no more.
func (t *tree[S]) Unpin(v core.Index) {
	vt := t.viewOf(v)
	if vt == nil {
		panic("orthtree: Unpin of an index that is not a view")
	}
	vt.root = nil
	t.Handle.Unpin(vt.Viewed(), recycle)
}

// Current implements core.Versioned: whether v is a view t pinned of its
// contents as they are.
func (t *tree[S]) Current(v core.Index) bool {
	vt := t.viewOf(v)
	return vt != nil && t.Holds(vt.Viewed()) && vt.root == t.root
}

// viewOf returns the tree behind v when v is a view storing S.
func (t *tree[S]) viewOf(v core.Index) *tree[S] {
	if w, ok := v.(*Tree); ok {
		if vt, ok := w.body.(*tree[S]); ok && vt.Viewed() != nil {
			return vt
		}
	}
	return nil
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
// their points out and replaces the subtree, in an update.
func (t *tree[S]) drop(nd *node[S]) {
	if nd == nil || t.Pool() == nil {
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
