package shard

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/geom"
	"repro/internal/obs"
)

// scrapeSums reads the registry's exposition and sums every series of
// the given per-shard family, also returning how many shard series exist.
func scrapeSums(t *testing.T, reg *obs.Registry, name string) (sum float64, series int) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range samples {
		if strings.HasPrefix(k, name+`{shard="`) {
			sum += v
			series++
		}
	}
	return sum, series
}

// TestShardMetricsAndCost pins the per-shard load accounting and the
// CostedIndex contract: batch ops count once per shard they land in,
// queries count once per shard they visit, and KNNCost/RangeListCost
// report exactly the shards expanded and candidates scanned.
func TestShardMetricsAndCost(t *testing.T) {
	const n = 64
	reg := obs.New()
	opts := testOptions(2, 4, brute)
	opts.Obs = reg
	s := New(opts)
	side := opts.Universe.Hi[0]

	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(int64(i)*(side/n), int64(i*7%n)*(side/n))
	}
	s.BatchDiff(pts, nil)

	if sum, series := scrapeSums(t, reg, "psi_shard_ops_total"); sum != n || series != 4 {
		t.Fatalf("shard ops sum=%v over %d series, want %d over 4", sum, series, n)
	}

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

	// Both queries visited every shard: 8 visits total across the
	// per-shard query counters, and the same 2n KNN-candidate scans are
	// not double-counted into ops.
	if sum, _ := scrapeSums(t, reg, "psi_shard_queries_total"); sum != 8 {
		t.Fatalf("shard query visits = %v, want 8", sum)
	}
	if sum, _ := scrapeSums(t, reg, "psi_shard_knn_expansions_total"); sum != 4 {
		t.Fatalf("knn expansions = %v, want 4", sum)
	}

	// The plain (cost-free) query path still records per-shard load.
	s.KNN(geom.Pt2(0, 0), 1, nil)
	if sum, _ := scrapeSums(t, reg, "psi_shard_queries_total"); sum < 9 {
		t.Fatalf("plain KNN did not record query visits (sum=%v)", sum)
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

// TestReplicaSharesMetrics pins the snapshot-twin contract: the twin from
// core.Adopter's NewReplica shares the original's metric handles instead
// of re-registering (a second registration of the same series panics), and
// physical applies on the replica count into the same per-shard counters;
// under a snapshot-mode Collection, where one twin applies a window and the other adopts
// it, the window counts once.
func TestReplicaSharesMetrics(t *testing.T) {
	reg := obs.New()
	opts := testOptions(2, 4, brute)
	opts.Obs = reg
	s := New(opts)

	pts := []geom.Point{geom.Pt2(1, 1), geom.Pt2(500, 500)}
	s.BatchDiff(pts, nil)
	r := s.NewReplica().(*Sharded)
	r.BatchDiff(pts, nil) // must not panic on duplicate registration
	if sum, _ := scrapeSums(t, reg, "psi_shard_ops_total"); sum != 4 {
		t.Fatalf("ops after twin applies = %v, want 4 (2 per twin)", sum)
	}
	if r.Size() != len(pts) || s.Size() != len(pts) {
		t.Fatalf("sizes = %d/%d, want %d", s.Size(), r.Size(), len(pts))
	}

	reg = obs.New()
	opts = testOptions(2, 4, spacH)
	opts.Obs = reg
	c := collection.New[int](New(opts), collection.Options{Snapshot: true})
	for id, p := range pts {
		c.Set(id, p)
	}
	c.Flush()
	if sum, _ := scrapeSums(t, reg, "psi_shard_ops_total"); sum != 2 || c.Stats().Versions != 2 {
		t.Fatalf("ops after one window over shared twins = %v, want 2", sum)
	}
}
