package spactree

import (
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// Copy-on-write by generation stamp. The join-based updates of Alg. 4 are
// one step from persistent: every rebalancing step already builds fresh
// nodes, and only three sites write a node that exists — the SPaC leaf
// absorb and swap-delete, and joinInto's interior update (the lazy leaf
// sort of expose sorts a copy in scratch, and CPAM leaves are rebuilt on
// every touch). Each of them first asks owns: a Tree carries a
// generation, a node the generation of the tree that created it, and a
// node is written in place only when the two are equal. Anything else is
// copied (a leaf with its block of points), the copy stamped, and from
// then on owned for as long as the tree keeps its generation.
//
// A tree that never adopts keeps one generation for life, owns every node
// it reaches and runs the in-place path exactly as before. Adopt makes two
// trees handles on one structure and moves both to generations above every
// stamp either can reach, so neither owns a node the other can see: each
// copies the paths it touches, once, and shares the rest. What a window
// displaces is reclaimed by the garbage collector when the last handle or
// pinned reader lets go of it.
//
// Stamps only ever compare against the tree that is writing, so there is no
// global counter: after Adopt the pair sits at max+1 and max+2 of their old
// generations. Two invariants follow and Validate checks both — no node is
// newer than the tree that reaches it, and no child is newer than its
// parent — and the second is what lets an update return a shared interior
// node untouched when both recursions handed back the children it has.

// owns reports whether t may write nd in place.
func (t *tree[S]) owns(nd *node[S]) bool { return nd.gen == t.gen }

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
// must not.
func (t *tree[S]) Adopt(src core.Index) bool {
	o, ok := unwrap[S](src)
	if !ok || o.curve != t.curve || o.mode != t.mode || o.opts != t.opts {
		return false
	}
	if o == t {
		return true
	}
	t.root = o.root
	g := max(t.gen, o.gen)
	t.gen, o.gen = g+1, g+2
	return true
}

// Shares implements core.Adopter: whether t and o are handles on one
// structure right now — the state Adopt leaves, until either is updated.
func (t *tree[S]) Shares(o core.Index) bool {
	ot, ok := unwrap[S](o)
	return ok && ot.root == t.root
}

// Copied implements core.Adopter: the nodes, and the bytes of leaf
// points, this tree has copied on first touch since it was made.
func (t *tree[S]) Copied() (nodes, bytes uint64) {
	return t.cowNodes.Load(), t.cowBytes.Load()
}

// cow counts the first-touch copies of one update. Every branch of the
// recursion adds to the counter it was handed and a fork hands its second
// branch a counter of its own, so the copy path shares no atomic; the
// update's total reaches the tree's counters once, in note.
type cow struct{ nodes, bytes uint64 }

// copied counts a leaf copied on first touch, with its block of points.
func copied[S geom.Packed](c *cow, pts []S) {
	c.nodes++
	c.bytes += uint64(len(pts)) * uint64(unsafe.Sizeof(*new(S)))
}

// note adds one update's count to the tree's totals.
func (t *tree[S]) note(c cow) {
	if c.nodes != 0 {
		t.cowNodes.Add(c.nodes)
		t.cowBytes.Add(c.bytes)
	}
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
	c.bytes += cr.bytes
	return l, r
}
