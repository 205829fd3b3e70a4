package rtree

import (
	"fmt"
	"sync"

	"repro/internal/geom"
)

// KNN implements core.Index with best-first search: a priority queue over
// nodes and points ordered by minimum distance — the standard R-tree kNN,
// which copes best with overlapping MBRs. The queue is geom.MinQueue, a
// concrete min-heap (container/heap would box every entry in an
// interface, allocating per push) recycled across queries, so warm
// queries only allocate when dst must grow.
func (t *Tree) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	if t.root == nil || k <= 0 {
		return dst
	}
	pqp := queuePool.Get().(*geom.MinQueue[entry])
	pq := (*pqp)[:0]
	pq = pq.Push(t.root.mbr.Dist2(q, t.dims), entry{nd: t.root})
	hi := 1 // high-water length: the only entries this query dirtied
	found := 0
	for len(pq) > 0 && found < k {
		var e geom.Keyed[entry]
		pq, e = pq.Pop()
		if nd := e.E.nd; nd == nil {
			dst = append(dst, e.E.pt)
			found++
		} else if nd.isLeaf() {
			for _, p := range nd.pts {
				pq = pq.Push(geom.Dist2(p, q, t.dims), entry{pt: p})
			}
		} else {
			for _, c := range nd.kids {
				pq = pq.Push(c.mbr.Dist2(q, t.dims), entry{nd: c})
			}
		}
		if len(pq) > hi {
			hi = len(pq)
		}
	}
	// Entries up to the high-water mark hold dead node pointers; clear
	// them so a pooled queue never pins a detached subtree. Slots beyond
	// hi were cleared the same way by whichever query grew the buffer.
	clear(pq[:hi])
	*pqp = pq
	queuePool.Put(pqp)
	return dst
}

// entry is a queue element: a node when nd != nil, a point otherwise.
type entry struct {
	nd *rnode
	pt geom.Point
}

var queuePool = sync.Pool{New: func() any { return new(geom.MinQueue[entry]) }}

// RangeCount implements core.Index.
func (t *Tree) RangeCount(box geom.Box) int { return t.count(t.root, box) }

func (t *Tree) count(nd *rnode, box geom.Box) int {
	if nd == nil || !box.Intersects(nd.mbr, t.dims) {
		return 0
	}
	if box.ContainsBox(nd.mbr, t.dims) {
		return nd.size
	}
	if nd.isLeaf() {
		n := 0
		for _, p := range nd.pts {
			if box.Contains(p, t.dims) {
				n++
			}
		}
		return n
	}
	n := 0
	for _, c := range nd.kids {
		n += t.count(c, box)
	}
	return n
}

// RangeList implements core.Index.
func (t *Tree) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	return t.list(t.root, box, dst)
}

func (t *Tree) list(nd *rnode, box geom.Box, dst []geom.Point) []geom.Point {
	if nd == nil || !box.Intersects(nd.mbr, t.dims) {
		return dst
	}
	if box.ContainsBox(nd.mbr, t.dims) {
		return collectPoints(nd, dst)
	}
	if nd.isLeaf() {
		for _, p := range nd.pts {
			if box.Contains(p, t.dims) {
				dst = append(dst, p)
			}
		}
		return dst
	}
	for _, c := range nd.kids {
		dst = t.list(c, box, dst)
	}
	return dst
}

// Validate checks the R-tree invariants: fan-out within [minEntries,
// maxEntries] (root exempt from the minimum), exact MBRs and sizes, and
// uniform leaf depth (R-trees are height-balanced).
func (t *Tree) Validate() error {
	if t.root == nil {
		return nil
	}
	_, _, err := t.validate(t.root, true)
	return err
}

func (t *Tree) validate(nd *rnode, isRoot bool) (size, depth int, err error) {
	if !isRoot && nd.entries() < minEntries {
		return 0, 0, fmt.Errorf("node underflow: %d entries", nd.entries())
	}
	if nd.entries() > maxEntries {
		return 0, 0, fmt.Errorf("node overflow: %d entries", nd.entries())
	}
	if nd.isLeaf() {
		if nd.size != len(nd.pts) {
			return 0, 0, fmt.Errorf("leaf size %d with %d points", nd.size, len(nd.pts))
		}
		if mbr := geom.BoundingBox(nd.pts, t.dims); mbr != nd.mbr {
			return 0, 0, fmt.Errorf("leaf MBR stale")
		}
		return nd.size, 1, nil
	}
	total := 0
	mbr := geom.EmptyBox(t.dims)
	childDepth := -1
	for _, c := range nd.kids {
		sz, d, err := t.validate(c, false)
		if err != nil {
			return 0, 0, err
		}
		if childDepth == -1 {
			childDepth = d
		} else if d != childDepth {
			return 0, 0, fmt.Errorf("leaves at unequal depths (%d vs %d)", d, childDepth)
		}
		total += sz
		mbr = mbr.Union(c.mbr, t.dims)
	}
	if total != nd.size {
		return 0, 0, fmt.Errorf("interior size %d, children sum %d", nd.size, total)
	}
	if mbr != nd.mbr {
		return 0, 0, fmt.Errorf("interior MBR stale")
	}
	return total, childDepth + 1, nil
}
