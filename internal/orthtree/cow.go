package orthtree

import (
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
// leaves, and the nodes, blocks and child arrays of owned nodes that a
// split, a flatten or an emptied leaf replaces, go to the update's spare
// (drop), and the ones the update builds next come from there (newNode,
// newLeaf, the grows and the child arrays, through core.Recycler). A leaf
// that overflows with few points splits on the stack (buildSmall); a
// flattened subtree's root becomes the leaf in place. With the batch's
// narrowed points, the sieve buffer and the skeletons also kept in the
// spare, a steady stream of batches on a tree that never adopts allocates
// next to nothing. Build takes no spare.
//
// Between adopting twins, what an update displaces of the structure the
// two share — the original that own copies, and the shared subtrees that
// drop replaces — is still reachable from the other handle. It is
// retired, with its block or child array, into the spare, which the pair
// shares, and reused only once the other handle has adopted this one
// (reclaim at adopt, internal/core adopt.go). A node stamped before the
// pair formed is never retired, and drop stops at it: no child is newer
// than its parent.

// own returns nd when t may write it in place, and otherwise a copy
// stamped with t's generation, counted in Copied, retiring nd.
func (t *tree[S]) own(nd *node[S]) *node[S] {
	if t.Owns(nd.gen) {
		return nd
	}
	cp := t.newNode(node[S]{gen: t.Gen, size: nd.size, bbox: nd.bbox})
	if nd.isLeaf() {
		var s S
		cp.pts = t.blocks().Make(len(nd.pts))
		copy(cp.pts, nd.pts)
		t.cowBytes.Add(uint64(len(nd.pts)) * uint64(unsafe.Sizeof(s)))
	} else {
		cp.kids = t.newKids()
		copy(cp.kids, nd.kids)
	}
	t.cowNodes.Add(1)
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
// Queries may run on either tree throughout; updates of either must not.
// The nodes src's updates retired go to the spare the two share from now
// on, when t and src are partners and t still roots what those updates
// began from: queries on t's old contents must have ended before either
// tree is next updated.
func (t *tree[S]) Adopt(src core.Index) bool {
	o, ok := unwrap[S](src)
	if !ok || o.opts != t.opts {
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

// Copied implements core.Adopter: the nodes, and the bytes of leaf points,
// this tree has copied on first touch since it was made.
func (t *tree[S]) Copied() (nodes, bytes uint64) {
	return t.cowNodes.Load(), t.cowBytes.Load()
}

// spare is what a tree's updates reuse from one to the next: a batch's
// narrowed points and the sieve's buffer (core.Scratch), the skeletons of
// large batches with their sieve scratch, and the nodes, leaf blocks and
// child arrays the tree owned and displaced (core.Recycler for the blocks
// and arrays), or that its partner's last update retired. Between updates
// the tree holds it weakly: the collector takes it back at its next cycle,
// so what a tree keeps for its updates is never part of its live heap.
// Two trees Adopt made a pair share one.
type spare[S geom.Packed] struct {
	ins, del, buf []S
	skels         core.FreeList[skeleton[S]]
	nodes         core.FreeList[node[S]]
	blocks        core.Recycler[S]
	kids          core.Recycler[*node[S]]
	retired       core.Retired[tree[S], node[S]]
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

// newKids returns an interior node's child array, of nil children: one
// the running update recycled, or a new one.
func (t *tree[S]) newKids() []*node[S] {
	if t.sp == nil {
		return make([]*node[S], t.nway)
	}
	return t.sp.kids.Make(t.nway)
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

// drop takes every node of the subtree nd, for a caller that has copied
// their points out and replaces the subtree, from the running update: for
// reuse, with a leaf's block or an interior node's child array, when t
// owns it, since no reader and no other handle can reach it; into the
// retired record when it is shared and stamped since the pair formed, for
// Adopt to reclaim. Owned nodes hang only below owned ones, and a node
// stamped since the pair formed only below one too, so the walk stops at
// the first node it would neither reuse nor retire.
func (t *tree[S]) drop(nd *node[S]) {
	if nd == nil || t.sp == nil || !t.Owns(nd.gen) && !t.Retires(nd.gen) {
		return
	}
	for _, c := range nd.kids {
		t.drop(c)
	}
	t.retire(nd)
}

// retire takes nd, which the running update replaced, as drop does, but
// not its subtree.
func (t *tree[S]) retire(nd *node[S]) {
	switch sp := t.sp; {
	case sp == nil:
	case t.Owns(nd.gen):
		sp.recycle(nd)
	case t.Retires(nd.gen):
		sp.retired.Add(nd)
	}
}

// recycle gives nd, with its block or child array, to the free lists;
// nothing else may reach it.
func (sp *spare[S]) recycle(nd *node[S]) {
	if nd.isLeaf() {
		sp.blocks.Put(nd.pts)
	} else {
		clear(nd.kids)
		sp.kids.Put(nd.kids)
	}
	*nd = node[S]{} // pins nothing while it waits
	sp.nodes.Put(nd)
}
