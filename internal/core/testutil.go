package core

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// This file hosts the shared randomized-property driver used by every
// tree package's quick tests. It lives in the
// library (not a _test file) so all packages can import it.

// OpScript is a reproducible randomized operation sequence over an index
// and the brute-force oracle. Steps alternate between batch inserts of
// fresh points, multiset deletes of (possibly repeated) live points, and
// query checkpoints.
type OpScript struct {
	Dims  int
	Side  int64
	Steps int
	Seed  int64
	// MaxBatch bounds the points per mutation step.
	MaxBatch int
	// Validate, when non-nil, is called after every mutation so packages
	// can check their structural invariants mid-sequence.
	Validate func() error
}

// Run drives idx through the script against a fresh oracle and returns
// the first discrepancy. Determinism: the same script always produces the
// same operation sequence.
func (s OpScript) Run(idx Index) error {
	rng := rand.New(rand.NewSource(s.Seed))
	ref := NewBruteForce(s.Dims)
	fresh := func(n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			for d := 0; d < s.Dims; d++ {
				pts[i][d] = rng.Int63n(s.Side + 1)
			}
			// Occasionally duplicate an earlier point to stress multiset
			// paths.
			if i > 0 && rng.Intn(8) == 0 {
				pts[i] = pts[rng.Intn(i)]
			}
		}
		return pts
	}
	check := func(step int) error {
		queries := fresh(6)
		boxes := []geom.Box{
			geom.BoxOf(queries[0], queries[0]),
			boxAround(queries[1], s.Side/16),
			boxAround(queries[2], s.Side/3),
			geom.UniverseBox(s.Dims, s.Side),
		}
		if err := VerifyQueries(idx, ref, queries, []int{1, 3, 17}, boxes); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		return nil
	}
	sampleLive := func(n int) []geom.Point {
		cur := ref.Points()
		batch := make([]geom.Point, 0, n)
		for i := 0; i < n; i++ {
			if len(cur) > 0 && rng.Intn(5) != 0 {
				batch = append(batch, cur[rng.Intn(len(cur))])
			} else {
				batch = append(batch, fresh(1)[0]) // likely a miss
			}
		}
		return batch
	}
	for step := 0; step < s.Steps; step++ {
		switch rng.Intn(5) {
		case 0, 1: // insert
			batch := fresh(rng.Intn(s.MaxBatch + 1))
			idx.BatchInsert(batch)
			ref.BatchInsert(batch)
		case 2: // delete a sample of live points (with repeats) + misses
			batch := sampleLive(rng.Intn(s.MaxBatch + 1))
			idx.BatchDelete(batch)
			ref.BatchDelete(batch)
		case 3: // rebuild from the live set (exercises Build after use)
			idx.Build(ref.Points())
		case 4: // mixed diff (the artifact's BatchDiff, §F.2)
			ins := fresh(rng.Intn(s.MaxBatch/2 + 1))
			del := sampleLive(rng.Intn(s.MaxBatch/2 + 1))
			idx.BatchDiff(ins, del)
			ref.BatchDiff(ins, del)
		}
		if s.Validate != nil {
			if err := s.Validate(); err != nil {
				return fmt.Errorf("step %d: invariant: %w", step, err)
			}
		}
		if idx.Size() != ref.Size() {
			return fmt.Errorf("step %d: size %d, oracle %d", step, idx.Size(), ref.Size())
		}
	}
	return check(s.Steps)
}

func boxAround(p geom.Point, radius int64) geom.Box {
	var lo, hi geom.Point
	for d := 0; d < geom.MaxDims; d++ {
		lo[d] = p[d] - radius
		hi[d] = p[d] + radius
		if lo[d] < 0 {
			lo[d] = 0
		}
	}
	return geom.BoxOf(lo, hi)
}

// CheckBoundary is the narrowing check of the trees that store int32
// coordinates: it puts the corners and edges of idx's universe u — every
// point each of whose coordinates is an end of u's side, one step inside
// it, or its middle — through Build and then a BatchDiff, and after each
// runs validate and compares KNN, RangeCount and RangeList with
// BruteForce, over u and over a box at every one of those points.
func CheckBoundary(idx Index, u geom.Box, validate func() error) error {
	dims := idx.Dims()
	var pts []geom.Point
	var grid func(d int, p geom.Point)
	grid = func(d int, p geom.Point) {
		if d == dims {
			pts = append(pts, p)
			return
		}
		lo, hi := u.Lo[d], u.Hi[d]
		for _, c := range []int64{lo, lo + 1, lo + (hi-lo)/2, hi - 1, hi} {
			p[d] = c
			grid(d+1, p)
		}
	}
	grid(0, geom.Point{})
	boxes := []geom.Box{u}
	for _, p := range pts {
		boxes = append(boxes, geom.BoxOf(p, p))
	}
	ref := NewBruteForce(dims)
	half := len(pts) / 2
	for _, step := range []struct {
		name string
		do   func(Index)
	}{
		{"Build", func(x Index) { x.Build(pts[:half]) }},
		{"BatchDiff", func(x Index) { x.BatchDiff(pts[half:], pts[:half/2]) }},
	} {
		step.do(idx)
		step.do(ref)
		if err := validate(); err != nil {
			return fmt.Errorf("after %s: %w", step.name, err)
		}
		if err := VerifyQueries(idx, ref, pts, []int{1, 3}, boxes); err != nil {
			return fmt.Errorf("after %s: %w", step.name, err)
		}
	}
	return nil
}
