package spactree

import (
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// buildSortedEnts builds a perfectly balanced tree over sorted entries.
// Every leaf copies its run into a block of its own (newLeaf): the tree
// keeps no part of ents — a batch, or a rebuild's scratch — alive, and no
// two leaves share an array.
func (t *tree[S]) buildSortedEnts(ents []Entry[S]) *node[S] {
	n := len(ents)
	if n < seqCutoff {
		return t.buildSmall(ents)
	}
	m := n / 2
	var l, r *node[S]
	parallel.DoIf(true,
		func() { l = t.buildSortedEnts(ents[:m]) },
		func() { r = t.buildSortedEnts(ents[m+1:]) })
	return t.rawNode(l, ents[m], r)
}

// buildSmall is buildSortedEnts on one goroutine, for a run below the
// fork cutoff. It pays for none of the fork's closures, and a caller's
// scratch passed to it can stay on the stack.
func (t *tree[S]) buildSmall(ents []Entry[S]) *node[S] {
	n := len(ents)
	if n == 0 {
		return nil
	}
	if n <= t.opts.LeafWrap {
		return t.newLeaf(ents, true)
	}
	m := n / 2
	return t.rawNode(t.buildSmall(ents[:m]), ents[m], t.buildSmall(ents[m+1:]))
}

// encodeAndSort turns an update batch into sorted entries (Alg. 4 line 2).
func (t *tree[S]) encodeAndSort(pts []geom.Point) []Entry[S] {
	ents := make([]Entry[S], len(pts))
	t.encodeEach(pts, func(i int) { ents[i] = t.encode(pts[i]) })
	sortEntries(ents)
	return ents
}

// encodeDeletes is encodeAndSort for a delete batch, less its points that
// do not fit int32: no stored entry can match one.
func (t *tree[S]) encodeDeletes(pts []geom.Point) []Entry[S] {
	dims := t.opts.Dims
	return t.encodeAndSort(geom.Keep(pts, func(p geom.Point) bool { return geom.Packable(p, dims) }))
}

// errUnpackable is the panic of an update whose point does not fit the
// stored form.
const errUnpackable = "spactree: point coordinate outside int32"

// encodeEach runs f on the index of every point of pts, in parallel
// blocks, then panics if one of the points does not fit int32 — before
// the tree has changed.
func (t *tree[S]) encodeEach(pts []geom.Point, f func(i int)) {
	dims := t.opts.Dims
	var bad atomic.Bool
	parallel.Blocks(len(pts), 4096, func(lo, hi int) {
		ok := true
		for i := lo; i < hi; i++ {
			ok = ok && geom.Packable(pts[i], dims)
			f(i)
		}
		if !ok {
			bad.Store(true)
		}
	})
	if bad.Load() {
		panic(errUnpackable)
	}
}
