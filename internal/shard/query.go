package shard

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// queryScratch is one query's fan-out state, recycled through
// Sharded.queryPool: the overlapping-shard id list, the KNN frontier, and
// the per-shard RangeList result buffers (retained at their high-water
// capacity, so steady-state queries allocate nothing beyond dst growth).
type queryScratch struct {
	ids      []int
	frontier []knnEntry
	buf      []geom.Point
	bufs     [][]geom.Point
}

// knnEntry is one frontier element: a shard ordered by the squared
// min-distance from the query point to its region.
type knnEntry struct {
	id    int
	dist2 int64
}

// overlapping appends the ids of shards whose region intersects box.
// Soundness of the pruning: points are assigned to shards by location, so
// every point of shard i lies inside regions[i]; a shard whose region
// misses the box cannot contribute.
func (p *partition) overlapping(box geom.Box, dst []int) []int {
	for i, r := range p.regions {
		if r.Intersects(box, p.dims) {
			dst = append(dst, i)
		}
	}
	return dst
}

// RangeCount implements core.Index: the count query fans out to the
// shards whose region overlaps the box and merges the per-shard counts.
func (s *Sharded) RangeCount(box geom.Box) int {
	sc := s.queryPool.Get().(*queryScratch)
	ids := s.part.overlapping(box, sc.ids[:0])
	n := parallel.Reduce(len(ids), 1, 0,
		func(i int) int { return s.shards[ids[i]].RangeCount(box) },
		func(a, b int) int { return a + b })
	sc.ids = ids[:0]
	s.queryPool.Put(sc)
	return n
}

// RangeList implements core.Index: overlapping shards report into
// per-shard buffers in parallel (no contended append), which are then
// concatenated into dst. The buffers are recycled across queries.
func (s *Sharded) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	sc := s.queryPool.Get().(*queryScratch)
	defer s.queryPool.Put(sc)
	ids := s.part.overlapping(box, sc.ids[:0])
	sc.ids = ids[:0]
	if len(ids) == 0 {
		return dst
	}
	if len(ids) == 1 {
		return s.shards[ids[0]].RangeList(box, dst)
	}
	for len(sc.bufs) < len(ids) {
		sc.bufs = append(sc.bufs, nil)
	}
	bufs := sc.bufs[:len(ids)]
	parallel.ForEach(len(ids), 1, func(i int) {
		bufs[i] = s.shards[ids[i]].RangeList(box, bufs[i][:0])
	})
	for _, b := range bufs {
		dst = append(dst, b...)
	}
	return dst
}

// KNN implements core.Index with best-first expansion over shard regions:
// shards are visited in order of min-distance to the query, each shard's
// local k nearest merge into one bounded heap, and the search terminates
// as soon as the k-th candidate so far beats the next shard's lower
// bound — distant shards are never touched.
func (s *Sharded) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	if k <= 0 {
		return dst
	}
	part := s.part
	dims := part.dims

	sc := s.queryPool.Get().(*queryScratch)
	defer s.queryPool.Put(sc)

	// Frontier: shard ids ordered by squared min-distance from q to the
	// region. Regions left empty by a degenerate partition are skipped
	// (they hold no points, and their sentinel corners would overflow the
	// distance arithmetic).
	frontier := sc.frontier[:0]
	for i, r := range part.regions {
		if r.IsEmpty() {
			continue
		}
		frontier = append(frontier, knnEntry{id: i, dist2: r.Dist2(q, dims)})
	}
	slices.SortFunc(frontier, func(a, b knnEntry) int {
		switch {
		case a.dist2 < b.dist2:
			return -1
		case a.dist2 > b.dist2:
			return 1
		}
		return 0
	})
	sc.frontier = frontier

	h := geom.GetKNNHeap(k)
	buf := sc.buf
	for _, e := range frontier {
		// Push takes only distances below Bound, so a region at exactly
		// the bound cannot contribute.
		if e.dist2 >= h.Bound() {
			break
		}
		buf = s.shards[e.id].KNN(q, k, buf[:0])
		for _, p := range buf {
			h.Push(p, geom.Dist2(p, q, dims))
		}
	}
	sc.buf = buf
	dst = h.Append(dst)
	geom.PutKNNHeap(h)
	return dst
}
