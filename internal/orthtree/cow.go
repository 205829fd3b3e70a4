package orthtree

import (
	"slices"
	"unsafe"

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

// own returns nd when t may write it in place, and otherwise a copy
// stamped with t's generation, counted in Copied.
func (t *tree[S]) own(nd *node[S]) *node[S] {
	if nd.gen == t.gen {
		return nd
	}
	cp := &node[S]{gen: t.gen, size: nd.size, bbox: nd.bbox, kids: slices.Clone(nd.kids)}
	if nd.isLeaf() {
		var s S
		cp.pts = slices.Clone(nd.pts)
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
