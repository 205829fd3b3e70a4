package core

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// This file provides the cross-validation machinery shared by every tree
// package's tests and by the root integration suite — the Go analogue of the paper's
// "hand-crafted framework" of extensive unit tests (§F.2). An index is
// verified against BruteForce on the full query suite; kNN answers are
// compared as squared-distance sequences so that ties at the k-th neighbor
// do not cause false mismatches.

// VerifyQueries checks idx against the reference on the given kNN queries
// (with each k in ks) and range boxes. It returns the first discrepancy as
// an error, nil if all agree.
func VerifyQueries(idx Index, ref Index, queries []geom.Point, ks []int, boxes []geom.Box) error {
	if idx.Size() != ref.Size() {
		return fmt.Errorf("%s: size %d, reference %d", idx.Name(), idx.Size(), ref.Size())
	}
	dims := idx.Dims()
	for qi, q := range queries {
		for _, k := range ks {
			got := idx.KNN(q, k, nil)
			want := ref.KNN(q, k, nil)
			if len(got) != len(want) {
				return fmt.Errorf("%s: query %d k=%d returned %d points, want %d",
					idx.Name(), qi, k, len(got), len(want))
			}
			for i := range got {
				gd := geom.Dist2(got[i], q, dims)
				wd := geom.Dist2(want[i], q, dims)
				if gd != wd {
					return fmt.Errorf("%s: query %d k=%d neighbor %d dist2 %d, want %d",
						idx.Name(), qi, k, i, gd, wd)
				}
			}
		}
	}
	for bi, b := range boxes {
		gotN := idx.RangeCount(b)
		wantN := ref.RangeCount(b)
		if gotN != wantN {
			return fmt.Errorf("%s: box %d RangeCount %d, want %d", idx.Name(), bi, gotN, wantN)
		}
		got := idx.RangeList(b, nil)
		want := ref.RangeList(b, nil)
		if len(got) != wantN {
			return fmt.Errorf("%s: box %d RangeList returned %d points, RangeCount %d",
				idx.Name(), bi, len(got), wantN)
		}
		sortPoints(got, dims)
		sortPoints(want, dims)
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("%s: box %d RangeList element %d = %v, want %v",
					idx.Name(), bi, i, got[i], want[i])
			}
		}
	}
	return nil
}

func sortPoints(pts []geom.Point, dims int) {
	sort.Slice(pts, func(i, j int) bool { return geom.Less(pts[i], pts[j], dims) })
}

// ParallelKNN runs one kNN query per element of queries concurrently
// (the paper runs query sets in parallel, §5.1) and returns the total
// number of neighbors found (a cheap checksum that keeps the compiler from
// eliding the work in benchmarks).
func ParallelKNN(idx Index, queries []geom.Point, k int) int {
	return parallel.Reduce(len(queries), 64, 0,
		func(i int) int { return len(idx.KNN(queries[i], k, nil)) },
		func(a, b int) int { return a + b })
}

// ParallelRangeCount runs the count queries concurrently and returns the
// summed counts.
func ParallelRangeCount(idx Index, boxes []geom.Box) int {
	return parallel.Reduce(len(boxes), 8, 0,
		func(i int) int { return idx.RangeCount(boxes[i]) },
		func(a, b int) int { return a + b })
}

// ParallelRangeList runs the report queries concurrently and returns the
// total number of reported points.
func ParallelRangeList(idx Index, boxes []geom.Box) int {
	return parallel.Reduce(len(boxes), 8, 0,
		func(i int) int { return len(idx.RangeList(boxes[i], nil)) },
		func(a, b int) int { return a + b })
}
