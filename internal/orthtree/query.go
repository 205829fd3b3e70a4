package orthtree

import (
	"repro/internal/geom"
)

// KNN implements core.Index: depth-first search visiting children in
// increasing order of bounding-box distance, pruning subtrees whose tight
// bbox is farther than the current k-th neighbor (§C: "A single k-NN query
// traverses subtrees in increasing order of their minimum distance").
// Stored points are widened only when the heap takes them.
func (t *tree[S]) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	if t.root == nil || k <= 0 {
		return dst
	}
	h := geom.GetKNNHeap(k)
	knn(t.root, q, h)
	dst = h.Append(dst)
	geom.PutKNNHeap(h)
	return dst
}

// cand is a child waiting in knn's distance order.
type cand[S geom.Packed] struct {
	d int64
	c *node[S]
}

func knn[S geom.Packed](nd *node[S], q geom.Point, h *geom.KNNHeap) {
	if nd.isLeaf() {
		for _, p := range nd.pts {
			if d := geom.PackedDist2(p, &q); d < h.Bound() {
				geom.PushPacked(h, p, d)
			}
		}
		return
	}
	// Order the (at most 8) children by bbox distance with an insertion
	// sort; the 1-out-of-2^D selectivity is the orth-tree's query edge
	// over binary trees (§5.1.3).
	var arr [8]cand[S]
	m := 0
	for _, c := range nd.kids {
		if c == nil {
			continue
		}
		d := c.bbox.Dist2(&q)
		j := m
		for j > 0 && arr[j-1].d > d {
			arr[j] = arr[j-1]
			j--
		}
		arr[j] = cand[S]{d: d, c: c}
		m++
	}
	for i := 0; i < m; i++ {
		if h.Full() && arr[i].d >= h.Bound() {
			return // children are sorted: the rest are at least as far
		}
		knn(arr[i].c, q, h)
	}
}

// RangeCount implements core.Index: subtrees fully inside the query box
// contribute their size without traversal.
func (t *tree[S]) RangeCount(box geom.Box) int {
	return count(t.root, &box)
}

func count[S geom.Packed](nd *node[S], box *geom.Box) int {
	if nd == nil || !nd.bbox.Meets(box) {
		return 0
	}
	if nd.bbox.Inside(box) {
		return nd.size
	}
	if nd.isLeaf() {
		n := 0
		for _, p := range nd.pts {
			if geom.PackedIn(box, p) {
				n++
			}
		}
		return n
	}
	n := 0
	for _, c := range nd.kids {
		n += count(c, box)
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
		return collect(nd, dst)
	}
	if nd.isLeaf() {
		for _, p := range nd.pts {
			if geom.PackedIn(box, p) {
				dst = append(dst, geom.Unpack(p))
			}
		}
		return dst
	}
	for _, c := range nd.kids {
		dst = list(c, box, dst)
	}
	return dst
}

// collect appends every point of the subtree to dst, widened.
func collect[S geom.Packed](nd *node[S], dst []geom.Point) []geom.Point {
	if nd == nil {
		return dst
	}
	if nd.isLeaf() {
		for _, p := range nd.pts {
			dst = append(dst, geom.Unpack(p))
		}
		return dst
	}
	for _, c := range nd.kids {
		dst = collect(c, dst)
	}
	return dst
}

// Height returns the tree height (leaves have height 1). The paper's
// O(log Δ) bound (§3.3) is exercised by tests and the ablation benches.
func (t *tree[S]) Height() int {
	return height(t.root)
}

func height[S geom.Packed](nd *node[S]) int {
	if nd == nil {
		return 0
	}
	if nd.isLeaf() {
		return 1
	}
	h := 0
	for _, c := range nd.kids {
		if ch := height(c); ch > h {
			h = ch
		}
	}
	return h + 1
}

// Stats summarizes the tree for benchmarks and debugging.
type Stats struct {
	Nodes, Leaves, MaxLeaf, Height int
}

// TreeStats walks the tree collecting structure statistics.
func (t *tree[S]) TreeStats() Stats {
	var s Stats
	s.Height = t.Height()
	var walk func(nd *node[S])
	walk = func(nd *node[S]) {
		if nd == nil {
			return
		}
		s.Nodes++
		if nd.isLeaf() {
			s.Leaves++
			if len(nd.pts) > s.MaxLeaf {
				s.MaxLeaf = len(nd.pts)
			}
			return
		}
		for _, c := range nd.kids {
			walk(c)
		}
	}
	walk(t.root)
	return s
}
