package orthtree

import (
	"repro/internal/geom"
	"repro/internal/parallel"
)

// build implements BuildOrth (Alg. 1): construct a subtree over pts, whose
// assigned region is region. The sieve moves the points from pts to buf,
// which has the same length, and the recursion ping-pongs between the two;
// leaves copy their points out, so both are dead once build returns.
func (t *tree[S]) build(pts, buf []S, region geom.Box) *node[S] {
	n := len(pts)
	if n == 0 {
		return nil
	}
	dims := t.opts.Dims
	// Alg. 1 line 2, extended with the degenerate-region rule that bounds
	// the height by O(log Δ): an unsplittable region (all duplicates)
	// becomes an oversized leaf.
	if n <= t.opts.LeafWrap || !region.Splittable(dims) {
		return t.newLeaf(pts)
	}

	// Lines 4-5: "build" the λ-level skeleton. Nothing of it exists but
	// the midpoints of its splits, tabulated per dimension.
	lam := t.effLambda(n)
	nb := 1 << (lam * dims)
	g := newGrid(region, lam, dims, t.spread[lam])

	// Line 6: sieve the points into the buckets. This one pass of data
	// movement is the paper's whole trick: it replaces the per-level
	// distribution of naive orth-tree construction (and the code
	// computation + sort of SFC-based construction).
	offsets := parallel.Sieve(pts, buf, nb, func(p S) int { return bucket(g, p) })

	// Lines 7-9: recurse on every non-empty bucket in parallel.
	subs := make([]*node[S], nb)
	rec := func(i int) {
		lo, hi := offsets[i], offsets[i+1]
		if lo == hi {
			return
		}
		subs[i] = t.build(buf[lo:hi], pts[lo:hi], g.region(i))
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
func (t *tree[S]) effLambda(n int) int {
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
func (t *tree[S]) assemble(subs []*node[S], level, prefix, lam int, region geom.Box) *node[S] {
	if level == lam {
		return subs[prefix]
	}
	dims := t.opts.Dims
	kids := make([]*node[S], t.nway)
	size := 0
	bbox := geom.EmptyPacked[S]()
	for q := 0; q < t.nway; q++ {
		c := t.assemble(subs, level+1, prefix<<dims|q, lam, region.Child(q, dims))
		kids[q] = c
		if c != nil {
			size += c.size
			bbox = bbox.Union(c.bbox)
		}
	}
	if size == 0 {
		return nil
	}
	nd := &node[S]{gen: t.Gen, size: size, bbox: bbox, kids: kids}
	if size <= t.opts.LeafWrap || !region.Splittable(dims) {
		return t.flatten(nd)
	}
	return nd
}

// buildSmall is build for fewer than smallBatch points on one goroutine,
// as an update's leaf overflow needs it: the canonical subtree over pts,
// split one level at a time by splitSmall, with no sieve, grid or
// skeleton to allocate. pts and buf are scratch of equal length.
func (t *tree[S]) buildSmall(pts, buf []S, region geom.Box) *node[S] {
	if len(pts) == 0 {
		return nil
	}
	dims := t.opts.Dims
	if len(pts) <= t.opts.LeafWrap || !region.Splittable(dims) {
		return t.newLeaf(pts)
	}
	offs := t.splitSmall(pts, buf, region)
	nd := t.NewNode(node[S]{gen: t.Gen, kids: t.newKids()})
	for q := range t.nway {
		nd.kids[q] = t.buildSmall(buf[offs[q]:offs[q+1]], pts[offs[q]:offs[q+1]], region.Child(q, dims))
	}
	recompute(nd)
	return nd
}

// newLeaf copies pts into an owned leaf node, its block recycled in an
// update.
func (t *tree[S]) newLeaf(pts []S) *node[S] {
	own := t.Blocks().Make(len(pts))
	copy(own, pts)
	return t.NewNode(node[S]{
		gen:  t.Gen,
		size: len(own),
		bbox: geom.PackedBounds(own),
		pts:  own,
	})
}

// flatten collapses a subtree, whose root is t's own, into a single leaf
// holding all its points: the root itself, which becomes a leaf in place.
// Under an update the leaf's block is recycled, the subtree below it
// dropped and the root's child array recycled.
func (t *tree[S]) flatten(nd *node[S]) *node[S] {
	pts := gather(nd, t.Blocks().Make(nd.size)[:0])
	for _, c := range nd.kids {
		t.drop(c)
	}
	if p := t.Pool(); p != nil {
		clear(nd.kids)
		p.X.kids.Put(nd.kids)
	}
	nd.kids, nd.pts, nd.size = nil, pts, len(pts)
	return nd
}

// gather appends every stored point of the subtree to dst.
func gather[S geom.Packed](nd *node[S], dst []S) []S {
	if nd == nil {
		return dst
	}
	if nd.isLeaf() {
		return append(dst, nd.pts...)
	}
	for _, c := range nd.kids {
		dst = gather(c, dst)
	}
	return dst
}
