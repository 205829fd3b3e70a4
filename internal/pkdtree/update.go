package pkdtree

import (
	"repro/internal/geom"
	"repro/internal/parallel"
)

// insert routes the batch down the splitters, rebuilding any subtree whose
// weight balance would degrade past the imbalance ratio — the Pkd-tree's
// reconstruction-based rebalancing [43].
func (t *Tree) insert(nd *node, pts, buf []geom.Point) *node {
	if len(pts) == 0 {
		return nd
	}
	if nd == nil {
		return t.build(pts, buf)
	}
	dims := t.opts.Dims
	if nd.isLeaf() {
		if nd.size+len(pts) <= t.opts.LeafWrap {
			for _, p := range pts {
				nd.bbox = nd.bbox.Extend(p, dims)
			}
			nd.pts = append(nd.pts, pts...)
			nd.size = len(nd.pts)
			return nd
		}
		return t.rebuildWith(nd, pts)
	}
	// Partition the batch by this node's splitter.
	offsets := parallel.Sieve(pts, buf, 2, func(p geom.Point) int {
		if p[nd.dim] < nd.split {
			return 0
		}
		return 1
	})
	nl, nr := offsets[1], len(pts)-offsets[1]
	newL := sizeOf(nd.left) + nl
	newR := sizeOf(nd.right) + nr
	if t.imbalanced(newL, newR) {
		// Partial reconstruction: flatten the subtree, add the batch,
		// build fresh. This is the O(m log² n) amortized step.
		return t.rebuildWith(nd, pts)
	}
	parallel.DoIf(len(pts) >= seqCutoff,
		func() { nd.left = t.insert(nd.left, buf[:offsets[1]], pts[:offsets[1]]) },
		func() { nd.right = t.insert(nd.right, buf[offsets[1]:], pts[offsets[1]:]) })
	nd.size = sizeOf(nd.left) + sizeOf(nd.right)
	nd.bbox = nd.left.bbox.Union(nd.right.bbox, dims)
	return nd
}

// delete routes the batch down, removes matches in leaves, contracts
// empty children and rebuilds on imbalance.
func (t *Tree) delete(nd *node, pts, buf []geom.Point) *node {
	if nd == nil || len(pts) == 0 {
		return nd
	}
	dims := t.opts.Dims
	if nd.isLeaf() {
		removeFromLeaf(nd, pts, dims)
		if nd.size == 0 {
			return nil
		}
		return nd
	}
	offsets := parallel.Sieve(pts, buf, 2, func(p geom.Point) int {
		if p[nd.dim] < nd.split {
			return 0
		}
		return 1
	})
	parallel.DoIf(len(pts) >= seqCutoff,
		func() { nd.left = t.delete(nd.left, buf[:offsets[1]], pts[:offsets[1]]) },
		func() { nd.right = t.delete(nd.right, buf[offsets[1]:], pts[offsets[1]:]) })
	if nd.left == nil {
		return nd.right
	}
	if nd.right == nil {
		return nd.left
	}
	nd.size = nd.left.size + nd.right.size
	nd.bbox = nd.left.bbox.Union(nd.right.bbox, dims)
	if nd.size <= t.opts.LeafWrap {
		return t.flatten(nd)
	}
	if t.imbalanced(nd.left.size, nd.right.size) {
		return t.rebuildWith(nd, nil)
	}
	return nd
}

// rebuildWith flattens a subtree, appends extra points, and builds fresh.
func (t *Tree) rebuildWith(nd *node, extra []geom.Point) *node {
	all := make([]geom.Point, 0, nd.size+len(extra))
	all = collect(nd, all)
	all = append(all, extra...)
	buf := make([]geom.Point, len(all))
	return t.build(all, buf)
}

func sizeOf(nd *node) int {
	if nd == nil {
		return 0
	}
	return nd.size
}

// removeFromLeaf removes one occurrence per requested point and refreshes
// the leaf's size and bbox.
func removeFromLeaf(nd *node, pts []geom.Point, dims int) {
	nd.pts = geom.RemoveEach(nd.pts, pts)
	nd.size = len(nd.pts)
	nd.bbox = geom.BoundingBox(nd.pts, dims)
}
