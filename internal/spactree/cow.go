package spactree

import (
	"unsafe"

	"repro/internal/core"
	"repro/internal/parallel"
)

// Copy-on-write by generation stamp. The join-based updates of Alg. 4 are
// one step from persistent: every rebalancing step already builds fresh
// nodes, and only five sites write a node that exists — the leaf absorb
// and swap-delete, joinInto's interior update, and the lazy leaf sorts in
// expose and splitLast. Each of them first asks owns: a Tree carries a
// generation, a node the generation of the tree that created it, and a
// node is written in place only when the two are equal. Anything else is
// copied (a leaf with its entry block), the copy stamped, and from then on
// owned for as long as the tree keeps its generation.
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

var (
	_ core.Replicator = (*Tree)(nil)
	_ core.Adopter    = (*Tree)(nil)
)

// owns reports whether t may write nd in place.
func (t *Tree) owns(nd *node) bool { return nd.gen == t.gen }

// NewReplica implements core.Replicator: a fresh, empty tree over the
// same curve, mode and options.
func (t *Tree) NewReplica() core.Index { return New(t.curve, t.mode, t.opts) }

// Adopt implements core.Adopter: t drops its contents and becomes a second
// handle on src's, in O(1) and without allocating. It refuses — false,
// nothing changed — unless src is a Tree over the same curve, mode and
// options. Queries may run on either tree throughout; updates of either
// must not.
func (t *Tree) Adopt(src core.Index) bool {
	o, ok := src.(*Tree)
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
func (t *Tree) Shares(o core.Index) bool {
	ot, ok := o.(*Tree)
	return ok && ot.root == t.root
}

// Copied implements core.Adopter: the nodes, and the bytes of leaf
// entries, this tree has copied on first touch since it was made.
func (t *Tree) Copied() (nodes, bytes uint64) {
	return t.cowNodes.Load(), t.cowBytes.Load()
}

// cow counts the first-touch copies of one update. Every branch of the
// recursion adds to the counter it was handed and a fork hands its second
// branch a counter of its own, so the copy path shares no atomic; the
// update's total reaches the tree's counters once, in note.
type cow struct{ nodes, bytes uint64 }

func (c *cow) leaf(ents []Entry) {
	c.nodes++
	c.bytes += uint64(len(ents)) * uint64(unsafe.Sizeof(Entry{}))
}

// note adds one update's count to the tree's totals.
func (t *Tree) note(c cow) {
	if c.nodes != 0 {
		t.cowNodes.Add(c.nodes)
		t.cowBytes.Add(c.bytes)
	}
}

// both runs step — insertSorted or deleteSorted — on two disjoint
// (subtree, batch) pairs, forked when par says the batch is worth it. The
// sequential case is a function of its own so that it pays for none of
// the fork's closures.
func (t *Tree) both(step func(*Tree, *node, []Entry, *cow) *node, par bool,
	ln *node, lb []Entry, rn *node, rb []Entry, c *cow) (l, r *node) {
	if par {
		return t.forked(step, ln, lb, rn, rb, c)
	}
	return step(t, ln, lb, c), step(t, rn, rb, c)
}

func (t *Tree) forked(step func(*Tree, *node, []Entry, *cow) *node,
	ln *node, lb []Entry, rn *node, rb []Entry, c *cow) (l, r *node) {
	var cr cow
	parallel.DoIf(true, // still sequential on one processor
		func() { l = step(t, ln, lb, c) },
		func() { r = step(t, rn, rb, &cr) })
	c.nodes += cr.nodes
	c.bytes += cr.bytes
	return l, r
}
