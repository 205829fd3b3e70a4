package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// knnCounter is a shard child that counts the KNN calls made on it: a
// call is one expansion of that shard by the best-first frontier.
type knnCounter struct {
	core.Index
	calls int
}

func (c *knnCounter) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	c.calls++
	return c.Index.KNN(q, k, dst)
}

func countingBrute(dims int, u geom.Box) core.Index { return &knnCounter{Index: brute(dims, u)} }

// expansions returns the KNN calls each shard of s has received.
func expansions(s *Sharded) []int {
	calls := make([]int, len(s.shards))
	for i, c := range s.shards {
		calls[i] = c.(*knnCounter).calls
	}
	return calls
}

// TestKNNExpandsEveryShardOnce: with k >= n no candidate set fills the
// heap, so no bound prunes and the KNN must expand each non-empty shard
// exactly once and return every point.
func TestKNNExpandsEveryShardOnce(t *testing.T) {
	const n = 64
	opts := testOptions(2, 4, countingBrute)
	s := New(opts)
	side := opts.Universe.Hi[0]

	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(int64(i)*(side/n), int64(i*7%n)*(side/n))
	}
	s.BatchDiff(pts, nil)
	for i, c := range s.shards {
		if c.Size() == 0 {
			t.Fatalf("layout: shard %d is empty", i)
		}
	}

	got := s.KNN(geom.Pt2(side/2, side/2), n, nil)
	if len(got) != n {
		t.Fatalf("KNN returned %d points, want %d", len(got), n)
	}
	for _, calls := range expansions(s) {
		if calls != 1 {
			t.Fatalf("shard expansions = %v, want each of the 4 shards once", expansions(s))
		}
	}
}

// TestKNNStopsAtTheBound: a region exactly as far from the query as the
// k-th candidate cannot contribute (Push takes only distances below the
// bound), so the search must not expand it. Two shards over the default
// equal-cell split; q is the centre of region 0, p1 the point of region 1
// nearest to q, p0 a point of region 0 just as far from q.
func TestKNNStopsAtTheBound(t *testing.T) {
	s := New(testOptions(2, 2, countingBrute))
	r0, r1 := s.part.regions[0], s.part.regions[1]
	q := geom.Pt2(r0.Lo[0]+r0.Side(0)/2, r0.Lo[1]+r0.Side(1)/2)
	var p1 geom.Point
	for d := range 2 {
		p1[d] = min(max(q[d], r1.Lo[d]), r1.Hi[d])
	}
	p0 := geom.Pt2(q[0]+p1[1]-q[1], q[1]+p1[0]-q[0]) // p1's offset, axes swapped
	if s.part.shardOf(q) != 0 || s.part.shardOf(p0) != 0 || s.part.shardOf(p1) != 1 {
		t.Fatalf("layout: q %v, p0 %v, p1 %v fall in shards %d, %d, %d", q, p0, p1,
			s.part.shardOf(q), s.part.shardOf(p0), s.part.shardOf(p1))
	}
	s.BatchInsert([]geom.Point{p0, p1}) // no Build: the split stays as it is
	got := s.KNN(q, 1, nil)
	if len(got) != 1 || geom.Dist2(got[0], q, 2) != r1.Dist2(q, 2) {
		t.Fatalf("KNN = %v, want one point at distance² %d", got, r1.Dist2(q, 2))
	}
	if calls := expansions(s); calls[0] != 1 || calls[1] != 0 {
		t.Fatalf("shard expansions = %v, want [1 0]: region 1 lies exactly on the bound", calls)
	}
}
