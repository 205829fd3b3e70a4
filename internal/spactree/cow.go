package spactree

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// Copy-on-write by generation stamp, under internal/core's Handle, which
// holds the protocol: the generations, the pool, the pinned views and the
// reclaim at unpin. The join-based updates of Alg. 4 are one step from
// persistent: every rebalancing step already builds fresh nodes, and only
// three sites write a node that exists — the SPaC leaf absorb and
// swap-delete, and joinInto's interior update, which keeps an interior
// node whose children stayed balanced and whose subtree holds more than φ
// points, exactly where Join would rebuild it unchanged (the lazy leaf
// sort of expose sorts a copy in scratch, and CPAM leaves are rebuilt on
// every touch). Each of them first asks owns, and copies anything else (a
// leaf with its block of points), the copy stamped, counted where it is
// made, and from then on owned until the next Pin.
//
// The nodes an update reads and replaces — an exposed node, a leaf split,
// merged or flattened, an interior node Join rebuilds, the shared leaves
// absorb and deleteFromLeaf copy, the shared interior node joinInto
// copies — go to free, and whole subtrees to drop; NewNode, newLeaf and
// the grows through core.Recycler build from the pool. The pool's scratch
// keeps a batch's entries and their sort buffer.
//
// A view is a tree of its own over the writer's root, made at the first
// Pin that needs one and handed out again by the Pins after it. Validate
// checks that no node is newer than the tree that reaches it and no child
// newer than its parent; the second is what lets an update return a shared
// interior node untouched when both recursions handed back the children it
// has.

// scratch is a SPaC tree's part of its pool: a batch's entries and their
// sort buffer (core.Scratch).
type scratch[S geom.Packed] struct{ ins, del, sort []Entry[S] }

// owns reports whether t may write nd in place.
func (t *tree[S]) owns(nd *node[S]) bool { return t.Owns(nd.gen) }

// Pin implements core.Versioned: a read-only view of t's contents.
func (t *tree[S]) Pin() core.Index {
	p := t.Handle.Pin()
	if p.View == nil {
		p.View = &Tree{&tree[S]{opts: t.opts, curve: t.curve, mode: t.mode}}
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
		panic("spactree: Unpin of an index that is not a view")
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

// both runs one step — deleteSorted when del is set, else insertSorted —
// on two disjoint (subtree, batch) pairs, forked when par says the batch
// is worth it. The sequential case is a function of its own so that it
// pays for none of the fork's closures, and the step is named by a flag,
// not a method value, which a generic method would allocate per call.
func (t *tree[S]) both(del, par bool, ln *node[S], lb []Entry[S], rn *node[S], rb []Entry[S]) (l, r *node[S]) {
	if par {
		return t.forked(del, ln, lb, rn, rb)
	}
	return t.step(del, ln, lb), t.step(del, rn, rb)
}

func (t *tree[S]) step(del bool, nd *node[S], batch []Entry[S]) *node[S] {
	if del {
		return t.deleteSorted(nd, batch)
	}
	return t.insertSorted(nd, batch)
}

func (t *tree[S]) forked(del bool, ln *node[S], lb []Entry[S], rn *node[S], rb []Entry[S]) (l, r *node[S]) {
	parallel.DoIf(true, // still sequential on one processor
		func() { l = t.step(del, ln, lb) },
		func() { r = t.step(del, rn, rb) })
	return l, r
}

// free takes nd — a node the caller has read and replaces — from the
// running update (core.Handle.Free).
func (t *tree[S]) free(nd *node[S]) {
	if nd != nil {
		t.Free(nd, nd.gen, recycle)
	}
}

// recycle gives the pool a leaf's block; nothing else may reach it.
func recycle[S geom.Packed](p *core.Pool[node[S], S, scratch[S]], nd *node[S]) {
	if nd.isLeaf() {
		p.Blocks.Put(nd.pts)
	}
}

// drop frees every node of the subtree nd, for a caller that has copied
// its entries out and replaces it, in an update.
func (t *tree[S]) drop(nd *node[S]) {
	if nd == nil || t.Pool() == nil {
		return
	}
	if !nd.isLeaf() {
		t.drop(nd.left)
		t.drop(nd.right)
	}
	t.free(nd)
}
