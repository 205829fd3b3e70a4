package orthtree

import (
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// build implements BuildOrth (Alg. 1): construct a subtree over pts, whose
// assigned region is region. The sieve moves the points from pts to buf,
// which has the same length, and the recursion ping-pongs between the two;
// leaves copy their points out, so both are dead once build returns.
//
// input marks Build's own call, whose pts is the caller's slice: it is
// only read, every point is checked against region (the universe) in the
// pass that sieves it, and each bucket gets scratch of its own to
// ping-pong with.
func (t *Tree) build(pts, buf []geom.Point, region geom.Box, input bool) *node {
	n := len(pts)
	if n == 0 {
		return nil
	}
	dims := t.opts.Dims
	// Alg. 1 line 2, extended with the degenerate-region rule that bounds
	// the height by O(log Δ): an unsplittable region (all duplicates)
	// becomes an oversized leaf.
	if n <= t.opts.LeafWrap || !region.Splittable(dims) {
		if input {
			t.checkInside(pts)
		}
		return t.newLeaf(pts)
	}

	// Lines 4-5: "build" the λ-level skeleton. Nothing of it exists but
	// the midpoints of its splits, tabulated per dimension.
	lam := t.effLambda(n)
	nb := 1 << (lam * dims)
	g := t.newGrid(region, lam)

	// Line 6: sieve the points into the buckets. This one pass of data
	// movement is the paper's whole trick: it replaces the per-level
	// distribution of naive orth-tree construction (and the code
	// computation + sort of SFC-based construction).
	bucketOf := g.bucket
	var outside atomic.Bool
	if input {
		bucketOf = func(p geom.Point) int {
			if !region.Contains(p, dims) {
				outside.Store(true)
			}
			return g.bucket(p)
		}
	}
	offsets := parallel.Sieve(pts, buf, nb, bucketOf)
	if outside.Load() {
		panic(errOutside)
	}

	// Lines 7-9: recurse on every non-empty bucket in parallel.
	subs := make([]*node, nb)
	rec := func(i int) {
		lo, hi := offsets[i], offsets[i+1]
		if lo == hi {
			return
		}
		spare := pts[lo:hi]
		if input {
			spare = make([]geom.Point, hi-lo)
		}
		subs[i] = t.build(buf[lo:hi], spare, g.region(i), false)
	}
	if n >= seqCutoff {
		parallel.ForEach(nb, 1, rec)
	} else {
		for i := 0; i < nb; i++ {
			rec(i)
		}
	}

	// Line 10: materialize the skeleton's interior nodes bottom-up,
	// computing bounding boxes and merging undersized subtrees into
	// leaves (canonical form).
	return t.assemble(subs, 0, 0, lam, region)
}

// effLambda shrinks the skeleton height for small inputs: a level is
// dropped while the shallower skeleton's buckets would still hold a
// leaf's worth of points or fewer on average, because sieving a leaf's
// points apart only for assemble to flatten them again is wasted
// movement. The final structure is unchanged (assemble canonicalizes);
// only the sieve fan-out varies.
func (t *Tree) effLambda(n int) int {
	lam := t.opts.SkeletonLevels
	for lam > 1 && t.opts.LeafWrap<<((lam-1)*t.opts.Dims) >= n {
		lam--
	}
	return lam
}

// assemble turns the per-bucket subtrees back into λ levels of interior
// nodes. prefix identifies the skeleton node at the given level; buckets
// below it occupy subs[prefix<<((lam-level)·D) : ...]. Skeleton nodes whose
// subtree is small (or whose region is degenerate) are flattened into
// leaves, which keeps the structure canonical and history-independent.
func (t *Tree) assemble(subs []*node, level, prefix, lam int, region geom.Box) *node {
	if level == lam {
		return subs[prefix]
	}
	dims := t.opts.Dims
	kids := make([]*node, t.nway)
	size := 0
	bbox := geom.EmptyBox(dims)
	nonNil := 0
	for q := 0; q < t.nway; q++ {
		c := t.assemble(subs, level+1, prefix<<dims|q, lam, region.Child(q, dims))
		kids[q] = c
		if c != nil {
			size += c.size
			bbox = bbox.Union(c.bbox, dims)
			nonNil++
		}
	}
	if size == 0 {
		return nil
	}
	nd := &node{gen: t.gen, size: size, bbox: bbox, kids: kids}
	if size <= t.opts.LeafWrap || !region.Splittable(dims) {
		return t.flatten(nd)
	}
	return nd
}

// newLeaf copies pts into an owned leaf node.
func (t *Tree) newLeaf(pts []geom.Point) *node {
	own := make([]geom.Point, len(pts))
	copy(own, pts)
	return &node{
		gen:  t.gen,
		size: len(own),
		bbox: geom.BoundingBox(own, t.opts.Dims),
		pts:  own,
	}
}

// flatten collapses a subtree into a single leaf holding all its points.
func (t *Tree) flatten(nd *node) *node {
	pts := make([]geom.Point, 0, nd.size)
	pts = collect(nd, pts)
	return &node{gen: t.gen, size: len(pts), bbox: nd.bbox, pts: pts}
}

// collect appends every point of the subtree to dst.
func collect(nd *node, dst []geom.Point) []geom.Point {
	if nd == nil {
		return dst
	}
	if nd.isLeaf() {
		return append(dst, nd.pts...)
	}
	for _, c := range nd.kids {
		dst = collect(c, dst)
	}
	return dst
}
