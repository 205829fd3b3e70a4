package shard

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

// TestShardQueryCost pins the CostedIndex contract: KNNCost and
// RangeListCost report exactly the shards expanded and candidates scanned.
func TestShardQueryCost(t *testing.T) {
	const n = 64
	opts := testOptions(2, 4, brute)
	s := New(opts)
	side := opts.Universe.Hi[0]

	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(int64(i)*(side/n), int64(i*7%n)*(side/n))
	}
	s.BatchDiff(pts, nil)

	// k >= n forces the KNN to expand every (non-empty) shard and scan
	// every point, so the cost is exact and checkable.
	var cost obs.QueryCost
	got := s.KNNCost(geom.Pt2(side/2, side/2), n, nil, &cost)
	if len(got) != n {
		t.Fatalf("KNNCost returned %d points, want %d", len(got), n)
	}
	if cost.Shards != 4 || cost.Candidates != n {
		t.Fatalf("KNN cost = %+v, want 4 shards and %d candidates", cost, n)
	}
	// Cost accumulates (callers zero it per query): a universe range list
	// adds all shards and all points on top.
	got = s.RangeListCost(opts.Universe, nil, &cost)
	if len(got) != n {
		t.Fatalf("RangeListCost returned %d points, want %d", len(got), n)
	}
	if cost.Shards != 8 || cost.Candidates != 2*n {
		t.Fatalf("accumulated cost = %+v, want 8 shards and %d candidates", cost, 2*n)
	}
}

// TestKNNCostStopsAtTheBound: a region exactly as far from the query as
// the k-th candidate cannot contribute (Push takes only distances below
// the bound), so the search must not expand it. Two shards over the
// default equal-cell split; q is the centre of region 0, p1 the point of
// region 1 nearest to q, p0 a point of region 0 just as far from q.
func TestKNNCostStopsAtTheBound(t *testing.T) {
	s := New(testOptions(2, 2, brute))
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
	var cost obs.QueryCost
	got := s.KNNCost(q, 1, nil, &cost)
	if len(got) != 1 || geom.Dist2(got[0], q, 2) != r1.Dist2(q, 2) {
		t.Fatalf("KNN = %v, want one point at distance² %d", got, r1.Dist2(q, 2))
	}
	if cost.Shards != 1 {
		t.Fatalf("expanded %d shards, want 1: region 1 lies exactly on the bound", cost.Shards)
	}
}
