package spactree

import (
	"sync"

	"repro/internal/geom"
)

// KNN implements core.Index with best-first search over bounding boxes,
// the standard kNN for overlapping boxes (rtree's KNN is the same idea): a
// min-queue holds the subtrees still to visit, keyed by the distance from q
// to their box, and the search always continues with the nearest one, so a
// subtree is opened only if its box beats the k-th neighbour found before
// it. At an interior node the search walks straight into the nearer child
// while that child is no farther than the head of the queue; only the
// farther child is queued, and only when it can still contribute. Interior
// pivots are stored entries (Alg. 3 line 30), offered to the heap as the
// search passes them. R-tree boxes overlap, which is why this still does
// more work than the space-partitioning trees (§5.1.3) — the price of the
// fastest updates.
func (t *Tree) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	if t.root == nil || k <= 0 {
		return dst
	}
	dims := t.opts.Dims
	h := geom.GetKNNHeap(k)
	qp := queuePool.Get().(*subtreeQueue)
	pq := (*qp)[:0]
	hi := 0 // high-water length: the only entries this query dirtied
	for nd := t.root; nd != nil; {
		if nd.isLeaf() {
			// Leaves are scanned wholesale: in-leaf order is irrelevant to
			// queries, which is the observation behind the SPaC relaxation.
			for i := range nd.ents {
				p := &nd.ents[i].P
				if d := dist2(p, &q, dims); d < h.Bound() {
					h.Push(*p, d)
				}
			}
		} else {
			if d := dist2(&nd.pivot.P, &q, dims); d < h.Bound() {
				h.Push(nd.pivot.P, d)
			}
			near, far := nd.left, nd.right
			dn, df := boxDist2(&near.bbox, &q, dims), int64(1<<63-1)
			if far != nil {
				if df = boxDist2(&far.bbox, &q, dims); df < dn {
					near, far, dn, df = far, near, df, dn
				}
			}
			bound := h.Bound()
			if df < bound {
				pq = pq.push(subtree{df, far})
			}
			if dn < bound {
				if len(pq) == 0 || dn <= pq[0].d {
					nd = near
					continue
				}
				pq = pq.push(subtree{dn, near})
			}
		}
		// The queue only grows between pops, so its length here is the
		// high-water mark since the last one.
		hi = max(hi, len(pq))
		nd = nil
		if len(pq) > 0 {
			var e subtree
			pq, e = pq.pop()
			// The queue is ordered: once its head cannot beat the bound,
			// nothing left in it can, and the search ends.
			if e.d < h.Bound() {
				nd = e.nd
			}
		}
	}
	// Entries up to the high-water mark hold node pointers; clear them so a
	// pooled queue never pins a version of the tree its handles have let
	// go of. Slots beyond hi were cleared by whichever query grew the buffer.
	clear(pq[:hi])
	*qp = pq[:0]
	queuePool.Put(qp)
	dst = h.Append(dst)
	geom.PutKNNHeap(h)
	return dst
}

// dist2 is geom.Dist2 written out for the two or three dimensions a tree
// has, so that the per-entry leaf scan is straight-line code.
func dist2(p, q *geom.Point, dims int) int64 {
	dx, dy := p[0]-q[0], p[1]-q[1]
	s := dx*dx + dy*dy
	if dims > 2 {
		dz := p[2] - q[2]
		s += dz * dz
	}
	return s
}

// boxDist2 is geom.Box.Dist2 written out the same way.
func boxDist2(b *geom.Box, q *geom.Point, dims int) int64 {
	dx := max(b.Lo[0]-q[0], q[0]-b.Hi[0], 0)
	dy := max(b.Lo[1]-q[1], q[1]-b.Hi[1], 0)
	s := dx*dx + dy*dy
	if dims > 2 {
		dz := max(b.Lo[2]-q[2], q[2]-b.Hi[2], 0)
		s += dz * dz
	}
	return s
}

// subtree is a queue element: a node and the squared distance from the
// query to its bounding box.
type subtree struct {
	d  int64
	nd *node
}

// subtreeQueue is a binary min-heap on d, recycled across queries through
// queuePool so that warm queries allocate nothing.
type subtreeQueue []subtree

var queuePool = sync.Pool{New: func() any { return new(subtreeQueue) }}

func (q subtreeQueue) push(e subtree) subtreeQueue {
	q = append(q, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].d <= e.d {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	return q
}

func (q subtreeQueue) pop() (subtreeQueue, subtree) {
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && q[r].d < q[l].d {
			l = r
		}
		if q[l].d >= x.d {
			break
		}
		q[i] = q[l]
		i = l
	}
	if n > 0 {
		q[i] = x
	}
	return q, top
}

// RangeCount implements core.Index.
func (t *Tree) RangeCount(box geom.Box) int { return t.count(t.root, box) }

func (t *Tree) count(nd *node, box geom.Box) int {
	if nd == nil {
		return 0
	}
	dims := t.opts.Dims
	if !box.Intersects(nd.bbox, dims) {
		return 0
	}
	if box.ContainsBox(nd.bbox, dims) {
		return nd.size
	}
	if nd.isLeaf() {
		n := 0
		for _, e := range nd.ents {
			if box.Contains(e.P, dims) {
				n++
			}
		}
		return n
	}
	n := t.count(nd.left, box) + t.count(nd.right, box)
	if box.Contains(nd.pivot.P, dims) {
		n++
	}
	return n
}

// RangeList implements core.Index.
func (t *Tree) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	return t.list(t.root, box, dst)
}

func (t *Tree) list(nd *node, box geom.Box, dst []geom.Point) []geom.Point {
	if nd == nil {
		return dst
	}
	dims := t.opts.Dims
	if !box.Intersects(nd.bbox, dims) {
		return dst
	}
	if box.ContainsBox(nd.bbox, dims) {
		return collectPoints(nd, dst)
	}
	if nd.isLeaf() {
		for _, e := range nd.ents {
			if box.Contains(e.P, dims) {
				dst = append(dst, e.P)
			}
		}
		return dst
	}
	dst = t.list(nd.left, box, dst)
	if box.Contains(nd.pivot.P, dims) {
		dst = append(dst, nd.pivot.P)
	}
	return t.list(nd.right, box, dst)
}

// collectPoints appends every point of a subtree (pivots included).
func collectPoints(nd *node, dst []geom.Point) []geom.Point {
	if nd == nil {
		return dst
	}
	if nd.isLeaf() {
		for _, e := range nd.ents {
			dst = append(dst, e.P)
		}
		return dst
	}
	dst = collectPoints(nd.left, dst)
	dst = append(dst, nd.pivot.P)
	return collectPoints(nd.right, dst)
}
