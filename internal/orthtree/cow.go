package orthtree

import (
	"slices"
	"unsafe"
	"weak"

	"repro/internal/core"
	"repro/internal/geom"
)

// Copy-on-write by generation stamp, as in internal/spactree cow.go: Alg. 2
// writes only nodes on the paths a batch reaches, and each of them is one
// own has handed back. A Tree carries a generation, a node the generation
// of the tree that created it, and own returns a node of another
// generation as a stamped copy — an interior node with its child slots, a
// leaf with its points — which the caller links where the original was.
// The sites are the leaf absorb of insert, removeFromLeaf, the roots of
// insertSmall, deleteSmall and both skeleton paths, and every interior
// node enumerate descends into; recompute and the child-slot writes only
// see their results. A tree that never adopts owns every node it reaches.
// Adopt makes two trees handles on one structure at generations above
// every stamp either can reach, so neither writes a node the other can
// see; Validate checks that no node is newer than the tree that reaches it
// and no child newer than its parent.
//
// What a tree owns it may also reuse: the block a leaf's grow or fit
// leaves, and the blocks of owned leaves that a split, a flatten or an
// emptied leaf replaces, go to the update's spare (drop), and the blocks
// the update builds next come from there (newLeaf and the grows, through
// core.Recycler). A leaf that overflows with few points splits on the
// stack (buildSmall); a flattened subtree's root becomes the leaf in
// place. With the batch's narrowed points, the sieve buffer and the
// skeletons also kept in the spare, a steady stream of batches on a tree
// that never adopts allocates next to nothing. Build takes no spare.

// own returns nd when t may write it in place, and otherwise a copy
// stamped with t's generation, counted in Copied.
func (t *tree[S]) own(nd *node[S]) *node[S] {
	if nd.gen == t.gen {
		return nd
	}
	cp := &node[S]{gen: t.gen, size: nd.size, bbox: nd.bbox, kids: slices.Clone(nd.kids)}
	if nd.isLeaf() {
		var s S
		cp.pts = t.blocks().Make(len(nd.pts))
		copy(cp.pts, nd.pts)
		t.cowBytes.Add(uint64(len(nd.pts)) * uint64(unsafe.Sizeof(s)))
	}
	t.cowNodes.Add(1)
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
// Queries may run on either tree throughout; updates of either must not.
func (t *tree[S]) Adopt(src core.Index) bool {
	o, ok := unwrap[S](src)
	if !ok || o.opts != t.opts {
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

// Copied implements core.Adopter: the nodes, and the bytes of leaf points,
// this tree has copied on first touch since it was made.
func (t *tree[S]) Copied() (nodes, bytes uint64) {
	return t.cowNodes.Load(), t.cowBytes.Load()
}

// spare is what a tree's updates reuse from one to the next: a batch's
// narrowed points and the sieve's buffer (core.Scratch), the skeletons of
// large batches with their sieve scratch, and the nodes and leaf blocks
// the tree owned and displaced (core.Recycler for the blocks). Between updates
// the tree holds it weakly: the collector takes it back at its next cycle,
// so what a tree keeps for its updates is never part of its live heap.
type spare[S geom.Packed] struct {
	ins, del, buf []S
	skels         core.FreeList[skeleton[S]]
	nodes         core.FreeList[node[S]]
	blocks        core.Recycler[S]
}

// begin hands the update about to run the tree's spare, a new one if the
// collector has taken the last; end lets go of it.
func (t *tree[S]) begin() {
	sp := t.spare.Value()
	if sp == nil {
		sp = new(spare[S])
		t.spare = weak.Make(sp)
	}
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

// drop gives every node of the subtree nd that t owns, with a leaf's
// block, to the running update for reuse, for a caller that has copied
// their points out and replaces the subtree: no reader and no other
// handle can reach an owned node. Owned nodes hang only below owned ones,
// so the walk stops at the first shared node.
func (t *tree[S]) drop(nd *node[S]) {
	sp := t.sp
	if nd == nil || nd.gen != t.gen || sp == nil {
		return
	}
	if nd.isLeaf() {
		sp.blocks.Put(nd.pts)
	}
	for _, c := range nd.kids {
		t.drop(c)
	}
	*nd = node[S]{} // pins nothing while it waits
	sp.nodes.Put(nd)
}
