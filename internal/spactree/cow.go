package spactree

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// Copy-on-write by generation stamp, under internal/core's Handle, which
// holds the protocol: the generations, the pool, the retire rule and
// Adopt's reclaim. The join-based updates of Alg. 4 are one step from
// persistent: every rebalancing step already builds fresh nodes, and only
// three sites write a node that exists — the SPaC leaf absorb and
// swap-delete, and joinInto's interior update, which keeps an interior
// node whose children stayed balanced and whose subtree holds more than φ
// points, exactly where Join would rebuild it unchanged (the lazy leaf
// sort of expose sorts a copy in scratch, and CPAM leaves are rebuilt on
// every touch). Each of them first asks owns, and copies anything else (a
// leaf with its block of points), the copy stamped, counted, and from then
// on owned for as long as the tree keeps its generation.
//
// The nodes an update reads and replaces — an exposed node, a leaf split,
// merged or flattened, an interior node Join rebuilds, the shared leaves
// absorb and deleteFromLeaf copy, the shared interior node joinInto
// copies — go to free, and whole subtrees to drop; NewNode, newLeaf and
// the grows through core.Recycler build from the pool. The pool's scratch
// keeps a batch's entries and their sort buffer.
//
// Validate checks that no node is newer than the tree that reaches it and
// no child newer than its parent; the second is what lets an update return
// a shared interior node untouched when both recursions handed back the
// children it has, and what stops drop at the first node stamped before
// the pair.

// scratch is a SPaC tree's part of its pool: a batch's entries and their
// sort buffer (core.Scratch).
type scratch[S geom.Packed] struct{ ins, del, sort []Entry[S] }

// owns reports whether t may write nd in place.
func (t *tree[S]) owns(nd *node[S]) bool { return t.Owns(nd.gen) }

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
// curve, mode and options.
func (t *tree[S]) NewReplica() core.Index { return New(t.curve, t.mode, t.opts) }

// Adopt implements core.Adopter: t drops its contents and becomes a second
// handle on src's, in O(1) and without allocating. It refuses — false,
// nothing changed — unless src is a Tree over the same curve, mode and
// options. Queries may run on either tree throughout; updates of either
// must not, and queries on t's old contents must have ended before either
// is next updated (core.Handle.Adopt).
func (t *tree[S]) Adopt(src core.Index) bool {
	o, ok := unwrap[S](src)
	if !ok || o.curve != t.curve || o.mode != t.mode || o.opts != t.opts {
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

// cow counts the first-touch copies of one update, and the leaf points
// copied with them. Every branch of the recursion adds to the counter it
// was handed and a fork hands its second branch a counter of its own, so
// the copy path shares no atomic; the update's total reaches the tree's
// Copied once, through NoteCopies.
type cow struct{ nodes, elems uint64 }

// copied counts a leaf copied on first touch, with its block of points.
func (c *cow) copied(pts int) {
	c.nodes++
	c.elems += uint64(pts)
}

// both runs one step — deleteSorted when del is set, else insertSorted —
// on two disjoint (subtree, batch) pairs, forked when par says the batch
// is worth it. The sequential case is a function of its own so that it
// pays for none of the fork's closures, and the step is named by a flag,
// not a method value, which a generic method would allocate per call.
func (t *tree[S]) both(del, par bool, ln *node[S], lb []Entry[S], rn *node[S], rb []Entry[S], c *cow) (l, r *node[S]) {
	if par {
		return t.forked(del, ln, lb, rn, rb, c)
	}
	return t.step(del, ln, lb, c), t.step(del, rn, rb, c)
}

func (t *tree[S]) step(del bool, nd *node[S], batch []Entry[S], c *cow) *node[S] {
	if del {
		return t.deleteSorted(nd, batch, c)
	}
	return t.insertSorted(nd, batch, c)
}

func (t *tree[S]) forked(del bool, ln *node[S], lb []Entry[S], rn *node[S], rb []Entry[S], c *cow) (l, r *node[S]) {
	var cr cow
	parallel.DoIf(true, // still sequential on one processor
		func() { l = t.step(del, ln, lb, c) },
		func() { r = t.step(del, rn, rb, &cr) })
	c.nodes += cr.nodes
	c.elems += cr.elems
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
// its entries out and replaces it, down to the first node the update does
// not take (core.Handle.Takes).
func (t *tree[S]) drop(nd *node[S]) {
	if nd == nil || !t.Takes(nd.gen) {
		return
	}
	if !nd.isLeaf() {
		t.drop(nd.left)
		t.drop(nd.right)
	}
	t.free(nd)
}
