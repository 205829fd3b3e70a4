package spactree

import (
	"unsafe"
	"weak"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// Copy-on-write by generation stamp. The join-based updates of Alg. 4 are
// one step from persistent: every rebalancing step already builds fresh
// nodes, and only three sites write a node that exists — the SPaC leaf
// absorb and swap-delete, and joinInto's interior update, which keeps an
// interior node whose children stayed balanced and whose subtree holds
// more than φ points, exactly where Join would rebuild it unchanged (the
// lazy leaf sort of expose sorts a copy in scratch, and CPAM leaves are
// rebuilt on every touch). Each of them first asks owns: a Tree carries a
// generation, a node the generation of the tree that created it, and a
// node is written in place only when the two are equal. Anything else is
// copied (a leaf with its block of points), the copy stamped, counted,
// and from then on owned for as long as the tree keeps its generation.
//
// What a tree owns it may also reuse. A node that an update reads and
// replaces — an exposed node, a leaf split, merged or flattened, an
// interior node Join rebuilds, a leaf block a grow or a fit leaves — goes
// to the update's spare when it is owned (free, drop), and the nodes and
// blocks the update builds next come from there (newNode, and newLeaf and
// the grows through core.Recycler). An owned node was never published: no
// reader and no other handle can reach it, exactly why it may be written.
// The spare also keeps a batch's entries and their sort buffer, so a
// steady stream of batches on a tree that never adopts allocates next to
// nothing. Build takes no spare and recycles nothing.
//
// A tree that never adopts keeps one generation for life, owns every node
// it reaches and runs the in-place path exactly as before. Adopt makes two
// trees handles on one structure and moves both to generations above every
// stamp either can reach, so neither owns a node the other can see: each
// copies the paths it touches, once, and shares the rest. What a window
// displaces there — the shared nodes free and drop see, drop walking into
// shared subtrees too, the shared leaves absorb and deleteFromLeaf copy,
// the shared interior node joinInto copies — is still reachable from the
// other handle, so it is not reused: it is retired, leaf block and all,
// into the spare, which the pair shares. When the other handle adopts this
// one, nothing reaches those nodes any more, and Adopt hands them to the
// spare's free lists for the next window (reclaim at adopt, internal/core
// adopt.go, which also says when Adopt leaves them to the collector).
//
// Stamps only ever compare against the tree that is writing, so there is no
// global counter of them: after Adopt the pair sits at max+1 and max+2 of
// their old generations. Two invariants follow and Validate checks both —
// no node is newer than the tree that reaches it, and no child is newer
// than its parent — and the second is what lets an update return a shared
// interior node untouched when both recursions handed back the children it
// has, and what stops drop at the first node stamped before the pair.

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
// must not. The nodes src's updates retired go to the spare the two share
// from now on, when t and src are partners and t still roots what those
// updates began from: queries on t's old contents must have ended before
// either tree is next updated.
func (t *tree[S]) Adopt(src core.Index) bool {
	o, ok := unwrap[S](src)
	if !ok || o.curve != t.curve || o.mode != t.mode || o.opts != t.opts {
		return false
	}
	if o == t {
		return true
	}
	partners := core.Adopt(&t.Twin, &o.Twin)
	if sp := o.spare.Value(); sp != nil {
		sp.retired.Reclaim(o, t.root, partners, func(nd *node[S]) { sp.recycle(nd) })
	}
	t.root, t.spare = o.root, o.spare
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

// spare is what a tree's updates reuse from one to the next: a batch's
// entries and their sort buffer (core.Scratch), and the nodes and leaf
// blocks the tree owned and displaced (core.Recycler for the blocks), or
// that its partner's last update retired. Between updates the tree holds
// it weakly: the collector takes it back at its next cycle, so what a tree
// keeps for its updates is never part of its live heap. Two trees Adopt
// made a pair share one.
type spare[S geom.Packed] struct {
	ins, del, sort []Entry[S]
	blocks         core.Recycler[S]
	nodes          core.FreeList[node[S]]
	retired        core.Retired[tree[S], node[S]]
}

// begin hands the update about to run the tree's spare, a new one if the
// collector has taken the last; end lets go of it.
func (t *tree[S]) begin() {
	sp := t.spare.Value()
	if sp == nil {
		sp = new(spare[S])
		t.spare = weak.Make(sp)
	}
	sp.retired.Begin(t, t.root)
	t.sp = sp
}

func (t *tree[S]) end() { t.sp = nil }

// blocks is the running update's recycler, nil outside an update.
func (t *tree[S]) blocks() *core.Recycler[S] {
	if t.sp == nil {
		return nil
	}
	return &t.sp.blocks
}

// newNode returns a node holding v: one the running update recycled, or
// a new one.
func (t *tree[S]) newNode(v node[S]) *node[S] {
	var nd *node[S]
	if t.sp != nil {
		nd = t.sp.nodes.Get()
	} else {
		nd = new(node[S])
	}
	*nd = v
	return nd
}

// free takes nd — a node the caller has read and replaces — from the
// running update: for reuse, with a leaf's block, when t owns it, since no
// reader and no other handle can reach it; into the retired record when it
// is shared and stamped since the pair formed, for Adopt to reclaim.
func (t *tree[S]) free(nd *node[S]) {
	sp := t.sp
	switch {
	case nd == nil || sp == nil:
	case t.owns(nd):
		sp.recycle(nd)
	case t.Retires(nd.gen):
		sp.retired.Add(nd)
	}
}

// recycle gives nd, with a leaf's block, to the free lists; nothing else
// may reach it.
func (sp *spare[S]) recycle(nd *node[S]) {
	if nd.isLeaf() {
		sp.blocks.Put(nd.pts)
	}
	*nd = node[S]{} // pins nothing while it waits
	sp.nodes.Put(nd)
}

// drop frees every node of the subtree nd, for a caller that has copied
// its entries out and replaces it. Owned nodes hang only below owned
// ones, and a node stamped since the pair formed only below one too, so
// the walk stops at the first node free would neither recycle nor retire.
func (t *tree[S]) drop(nd *node[S]) {
	if nd == nil || t.sp == nil || !t.owns(nd) && !t.Retires(nd.gen) {
		return
	}
	if !nd.isLeaf() {
		t.drop(nd.left)
		t.drop(nd.right)
	}
	t.free(nd)
}
