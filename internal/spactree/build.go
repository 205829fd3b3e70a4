package spactree

import (
	"sync/atomic"

	"repro/internal/core"
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

// encodeAndSort turns points into sorted entries (Alg. 4 line 2) in a
// slice of their own: Build's form, which keeps nothing.
func (t *tree[S]) encodeAndSort(pts []geom.Point) []Entry[S] {
	return t.encodeInto(pts, make([]Entry[S], len(pts)), nil)
}

// encodeInto encodes pts into ents, which has their length, and sorts
// them with buf as the sort's scratch. It panics if one of the points does
// not fit int32 — before the tree has changed. A batch of one block is
// encoded without a closure, so an update's batch allocates nothing here.
func (t *tree[S]) encodeInto(pts []geom.Point, ents, buf []Entry[S]) []Entry[S] {
	const grain = 4096
	ok := true
	if len(pts) <= grain {
		ok = t.encodeRange(pts, ents, 0, len(pts))
	} else {
		var bad atomic.Bool
		parallel.Blocks(len(pts), grain, func(lo, hi int) {
			if !t.encodeRange(pts, ents, lo, hi) {
				bad.Store(true)
			}
		})
		ok = !bad.Load()
	}
	if !ok {
		panic(errUnpackable)
	}
	t.order.sort(ents, buf)
	return ents
}

// encodeRange encodes pts[lo:hi] into ents and reports whether all of
// them fit int32.
func (t *tree[S]) encodeRange(pts []geom.Point, ents []Entry[S], lo, hi int) bool {
	dims := t.opts.Dims
	ok := true
	for i := lo; i < hi; i++ {
		ok = ok && geom.Packable(pts[i], dims)
		ents[i] = t.encode(pts[i])
	}
	return ok
}

// encodeBatch is encodeAndSort for an update batch: into the running
// update's scratch slot keep, sorted with the pool's buffer.
func (t *tree[S]) encodeBatch(pts []geom.Point, keep *[]Entry[S]) []Entry[S] {
	return t.encodeInto(pts, core.Scratch(keep, len(pts)), core.Scratch(&t.Pool().X.sort, len(pts)))
}

// encodeDeletes is encodeBatch for a delete batch, less its points that
// do not fit int32: no stored entry can match one.
func (t *tree[S]) encodeDeletes(pts []geom.Point) []Entry[S] {
	dims := t.opts.Dims
	return t.encodeBatch(geom.Keep(pts, func(p geom.Point) bool { return geom.Packable(p, dims) }), &t.Pool().X.del)
}

// errUnpackable is the panic of an update whose point does not fit the
// stored form.
const errUnpackable = "spactree: point coordinate outside int32"
