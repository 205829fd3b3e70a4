package spactree

import (
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// pair is HybridSort's sort element: only the code and the point's index
// move through the sort; coordinates stay put until the final gather
// (Alg. 3 line 13 — "we only sort the ⟨code, id⟩ pairs, without the
// coordinates").
type pair struct {
	code uint64
	id   int32
}

// buildHybrid is the SPaC-tree construction (Alg. 3): the SFC code of each
// point is computed once, ⟨code, id⟩ pairs are sorted by code alone
// (coordinates are read only to order points whose codes collide), and
// BuildSorted gathers coordinates into leaves, narrowed to S.
func (t *tree[S]) buildHybrid(pts []geom.Point) *node[S] {
	n := len(pts)
	if n == 0 {
		return nil
	}
	pairs := make([]pair, n)
	t.encodeEach(pts, func(i int) {
		pairs[i] = pair{code: t.encode(pts[i]).Code, id: int32(i)}
	})
	// Equal codes tie-break by coordinates, so the total order matches
	// cmpEntry.
	parallel.SortByKey(pairs, func(pr pair) uint64 { return pr.code }, func(a, b pair) int {
		return geom.ComparePacked(geom.Pack[S](pts[a.id]), geom.Pack[S](pts[b.id]))
	})
	return t.buildSortedPairs(pts, pairs)
}

// buildSortedPairs is BuildSorted (Alg. 3 lines 20-31): perfectly balanced
// recursion; leaves gather their points by id (line 23), paying the cache
// misses here instead of moving coordinates through every sorting round.
func (t *tree[S]) buildSortedPairs(pts []geom.Point, pairs []pair) *node[S] {
	n := len(pairs)
	if n == 0 {
		return nil
	}
	if n <= t.opts.LeafWrap {
		blk := make([]S, n)
		for i, pr := range pairs {
			blk[i] = geom.Pack[S](pts[pr.id])
		}
		return &node[S]{size: n, gen: t.gen, bbox: geom.PackedBounds(blk), pts: blk, sorted: true}
	}
	m := n / 2
	var l, r *node[S]
	parallel.DoIf(n >= seqCutoff,
		func() { l = t.buildSortedPairs(pts, pairs[:m]) },
		func() { r = t.buildSortedPairs(pts, pairs[m+1:]) })
	k := Entry[S]{Code: pairs[m].code, P: geom.Pack[S](pts[pairs[m].id])}
	return t.rawNode(l, k, r)
}

// buildPlain is the CPAM construction the paper measures as the "plain
// adaptation": precompute full ⟨code, point⟩ entries in a separate pass,
// sort the entries, build. The extra reads/writes of whole entries through
// every sorting round are the overhead HybridSort removes (§4.1).
func (t *tree[S]) buildPlain(pts []geom.Point) *node[S] {
	if len(pts) == 0 {
		return nil
	}
	return t.buildSortedEnts(t.encodeAndSort(pts))
}

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
