package spactree

import (
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
// BuildSorted gathers coordinates into leaves.
func (t *Tree) buildHybrid(pts []geom.Point) *node {
	n := len(pts)
	if n == 0 {
		return nil
	}
	pairs := make([]pair, n)
	parallel.Blocks(n, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pairs[i] = pair{code: t.encode(pts[i]).Code, id: int32(i)}
		}
	})
	// Equal codes tie-break by coordinates, so the total order matches
	// cmpEntry.
	parallel.SortByKey(pairs, func(pr pair) uint64 { return pr.code }, func(a, b pair) int {
		return cmpPoint(pts[a.id], pts[b.id])
	})
	return t.buildSortedPairs(pts, pairs)
}

// buildSortedPairs is BuildSorted (Alg. 3 lines 20-31): perfectly balanced
// recursion; leaves gather their points by id (line 23), paying the cache
// misses here instead of moving 24-byte coordinates through every sorting
// round.
func (t *Tree) buildSortedPairs(pts []geom.Point, pairs []pair) *node {
	n := len(pairs)
	if n == 0 {
		return nil
	}
	if n <= t.opts.LeafWrap {
		ents := make([]Entry, n)
		for i, pr := range pairs {
			ents[i] = Entry{Code: pr.code, P: pts[pr.id]}
		}
		return t.newLeaf(ents, true)
	}
	m := n / 2
	var l, r *node
	parallel.DoIf(n >= seqCutoff,
		func() { l = t.buildSortedPairs(pts, pairs[:m]) },
		func() { r = t.buildSortedPairs(pts, pairs[m+1:]) })
	k := Entry{Code: pairs[m].code, P: pts[pairs[m].id]}
	return t.rawNode(l, k, r)
}

// buildPlain is the CPAM construction the paper measures as the "plain
// adaptation": precompute full ⟨code, point⟩ pairs in a separate pass,
// sort the 32-byte entries, build. The extra reads/writes of whole entries
// through every sorting round are the overhead HybridSort removes (§4.1).
func (t *Tree) buildPlain(pts []geom.Point) *node {
	n := len(pts)
	if n == 0 {
		return nil
	}
	ents := make([]Entry, n)
	parallel.For(n, 4096, func(i int) {
		ents[i] = t.encode(pts[i])
	})
	sortEntries(ents)
	return t.buildSortedEnts(ents)
}

// buildSortedEnts builds a perfectly balanced tree over sorted entries.
// Leaves alias segments of ents with clamped capacity, so later appends
// reallocate instead of clobbering a sibling's segment.
func (t *Tree) buildSortedEnts(ents []Entry) *node {
	n := len(ents)
	if n == 0 {
		return nil
	}
	if n <= t.opts.LeafWrap {
		return t.newLeaf(ents[0:n:n], true)
	}
	m := n / 2
	var l, r *node
	parallel.DoIf(n >= seqCutoff,
		func() { l = t.buildSortedEnts(ents[:m:m]) },
		func() { r = t.buildSortedEnts(ents[m+1 : n : n]) })
	return t.rawNode(l, ents[m], r)
}

// encodeAndSort turns an update batch into sorted entries (Alg. 4 line 2).
func (t *Tree) encodeAndSort(pts []geom.Point) []Entry {
	ents := make([]Entry, len(pts))
	parallel.For(len(pts), 4096, func(i int) {
		ents[i] = t.encode(pts[i])
	})
	sortEntries(ents)
	return ents
}
