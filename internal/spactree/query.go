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
// fastest updates. Stored points are widened only when the heap takes
// them.
func (t *tree[S]) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	if t.root == nil || k <= 0 {
		return dst
	}
	h := geom.GetKNNHeap(k)
	pool := queuePool[S]()
	qp := pool.Get().(*queue[S])
	pq := (*qp)[:0]
	hi := 0 // high-water length: the only entries this query dirtied
	for nd := t.root; nd != nil; {
		if nd.isLeaf() {
			// Leaves are scanned wholesale: in-leaf order is irrelevant to
			// queries, which is the observation behind the SPaC relaxation.
			for _, p := range nd.points() {
				if d := geom.PackedDist2(p, &q); d < h.Bound() {
					geom.PushPacked(h, p, d)
				}
			}
		} else {
			if d := geom.PackedDist2(nd.pivot.P, &q); d < h.Bound() {
				geom.PushPacked(h, nd.pivot.P, d)
			}
			near, far := nd.left, nd.right
			dn, df := near.bbox.Dist2(&q), int64(1<<63-1)
			if far != nil {
				if df = far.bbox.Dist2(&q); df < dn {
					near, far, dn, df = far, near, df, dn
				}
			}
			bound := h.Bound()
			if df < bound {
				pq = pq.Push(df, far)
			}
			if dn < bound {
				if len(pq) == 0 || dn <= pq[0].D {
					nd = near
					continue
				}
				pq = pq.Push(dn, near)
			}
		}
		// The queue only grows between pops, so its length here is the
		// high-water mark since the last one.
		hi = max(hi, len(pq))
		nd = nil
		if len(pq) > 0 {
			var e geom.Keyed[*node[S]]
			pq, e = pq.Pop()
			// The queue is ordered: once its head cannot beat the bound,
			// nothing left in it can, and the search ends.
			if e.D < h.Bound() {
				nd = e.E
			}
		}
	}
	// Entries up to the high-water mark hold node pointers; clear them so a
	// pooled queue never pins a version of the tree its handles have let
	// go of. Slots beyond hi were cleared by whichever query grew the buffer.
	clear(pq[:hi])
	*qp = pq[:0]
	pool.Put(qp)
	dst = h.Append(dst)
	geom.PutKNNHeap(h)
	return dst
}

// queue is the search's min-queue of subtrees, keyed by the squared
// distance from the query to their boxes, recycled across queries through
// queuePools so that warm queries allocate nothing.
type queue[S geom.Packed] = geom.MinQueue[*node[S]]

// queuePools hold the queues of 2-D and of 3-D trees; queuePool picks S's.
var queuePools = [2]sync.Pool{
	{New: func() any { return new(queue[[2]int32]) }},
	{New: func() any { return new(queue[[3]int32]) }},
}

func queuePool[S geom.Packed]() *sync.Pool {
	var s S
	return &queuePools[len(s)-2]
}

// RangeCount implements core.Index.
func (t *tree[S]) RangeCount(box geom.Box) int { return count(t.root, &box) }

func count[S geom.Packed](nd *node[S], box *geom.Box) int {
	if nd == nil || !nd.bbox.Meets(box) {
		return 0
	}
	if nd.bbox.Inside(box) {
		return nd.size
	}
	if nd.isLeaf() {
		n := 0
		for _, p := range nd.points() {
			if geom.PackedIn(box, p) {
				n++
			}
		}
		return n
	}
	n := count(nd.left, box) + count(nd.right, box)
	if geom.PackedIn(box, nd.pivot.P) {
		n++
	}
	return n
}

// RangeList implements core.Index.
func (t *tree[S]) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	return list(t.root, &box, dst)
}

func list[S geom.Packed](nd *node[S], box *geom.Box, dst []geom.Point) []geom.Point {
	if nd == nil || !nd.bbox.Meets(box) {
		return dst
	}
	if nd.bbox.Inside(box) {
		return collectPoints(nd, dst)
	}
	if nd.isLeaf() {
		for _, p := range nd.points() {
			if geom.PackedIn(box, p) {
				dst = append(dst, geom.Unpack(p))
			}
		}
		return dst
	}
	dst = list(nd.left, box, dst)
	if geom.PackedIn(box, nd.pivot.P) {
		dst = append(dst, geom.Unpack(nd.pivot.P))
	}
	return list(nd.right, box, dst)
}

// collectPoints appends every point of a subtree (pivots included),
// widened.
func collectPoints[S geom.Packed](nd *node[S], dst []geom.Point) []geom.Point {
	if nd == nil {
		return dst
	}
	if nd.isLeaf() {
		for _, p := range nd.points() {
			dst = append(dst, geom.Unpack(p))
		}
		return dst
	}
	dst = collectPoints(nd.left, dst)
	dst = append(dst, geom.Unpack(nd.pivot.P))
	return collectPoints(nd.right, dst)
}
