package orthtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// walkBucket is the per-level box walk the midpoint tables replaced, kept
// as the oracle: λ rounds of Box.Quadrant and Box.Child from region. It
// returns the bucket index (level-major quadrant digits) and the bucket's
// region.
func walkBucket(region geom.Box, p geom.Point, lam, dims int) (int, geom.Box) {
	b := 0
	for l := 0; l < lam; l++ {
		q := region.Quadrant(p, dims)
		region = region.Child(q, dims)
		b = b<<dims | q
	}
	return b, region
}

// awkwardUniverses are root regions chosen to break a classifier that
// assumes powers of two, non-negative coordinates or splittable sides.
func awkwardUniverses(dims int) []geom.Box {
	mk := func(lo, hi [3]int64) geom.Box {
		var b geom.Box
		for d := 0; d < dims; d++ {
			b.Lo[d], b.Hi[d] = lo[d], hi[d]
		}
		return b
	}
	return []geom.Box{
		mk([3]int64{0, 0, 0}, [3]int64{1 << 20, 1 << 20, 1 << 20}),
		mk([3]int64{0, 0, 0}, [3]int64{1000, 777, 13}),          // not powers of two
		mk([3]int64{-1000, -3, -50}, [3]int64{999, 4, -44}),     // negative Lo, odd sides
		mk([3]int64{5, 5, 5}, [3]int64{5, 6, 7}),                // sides 0, 1, 2
		mk([3]int64{-7, 0, 3}, [3]int64{-7, 0, 3}),              // a single cell
		mk([3]int64{-1, -2, 0}, [3]int64{1, 1, 1<<31 - 1}),      // sides 2, 3 and the int32 maximum
		mk([3]int64{-1 << 31, 0, 0}, [3]int64{1<<29 - 1, 9, 1}), // from the int32 minimum, straddling zero
	}
}

// pointIn draws a point of the universe, biased toward the split
// boundaries where rounding matters.
func pointIn(rng *rand.Rand, u geom.Box, dims int) (p geom.Point) {
	for d := 0; d < dims; d++ {
		side := u.Hi[d] - u.Lo[d]
		switch rng.Intn(4) {
		case 0:
			p[d] = u.Lo[d]
		case 1:
			p[d] = u.Hi[d]
		case 2: // next to a dyadic fraction of the side
			k := 1 + rng.Intn(4)
			cut := u.Lo[d] + side/(1<<k)*int64(rng.Intn(1<<k+1))
			p[d] = cut + int64(rng.Intn(3)-1)
			if p[d] < u.Lo[d] || p[d] > u.Hi[d] {
				p[d] = cut
			}
		default:
			p[d] = u.Lo[d] + rng.Int63n(side+1)
		}
	}
	return p
}

func TestGridMatchesBoxWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range []int{2, 3} {
		for ui, u := range awkwardUniverses(dims) {
			// λ up to 5 exceeds log₂(side) for the narrow sides: the
			// lower levels then split empty and one-cell intervals.
			for lam := 1; lam <= 5; lam++ {
				g := newGrid(u, lam, dims, spreadTables(lam, dims))
				seen := map[int]bool{}
				for i := 0; i < 4000; i++ {
					p := pointIn(rng, u, dims)
					wantB, wantR := walkBucket(u, p, lam, dims)
					gotB := bucketOf(g, p)
					if gotB != wantB {
						t.Fatalf("dims=%d universe#%d λ=%d: bucket(%v) = %d, box walk %d", dims, ui, lam, p, gotB, wantB)
					}
					if !seen[gotB] {
						seen[gotB] = true
						if gotR := g.region(gotB); gotR != wantR {
							t.Fatalf("dims=%d universe#%d λ=%d: region(%d) = %v, box walk %v", dims, ui, lam, gotB, gotR, wantR)
						}
					}
					if got, want := quadrantOf(u, p, dims), u.Quadrant(p, dims); got != want {
						t.Fatalf("dims=%d universe#%d: quadrant(%v) = %d, Box.Quadrant %d", dims, ui, p, got, want)
					}
				}
			}
		}
	}
}

// Every region, reached or not — empty halves of one-wide sides included —
// must be the box walk's, because sub-builds and Validate derive from it.
func TestGridRegionsExhaustive(t *testing.T) {
	for _, dims := range []int{2, 3} {
		for ui, u := range awkwardUniverses(dims) {
			lam := core.DefaultOptions(dims, u).SkeletonLevels
			g := newGrid(u, lam, dims, spreadTables(lam, dims))
			var walk func(region geom.Box, level, prefix int)
			walk = func(region geom.Box, level, prefix int) {
				if level == lam {
					if got := g.region(prefix); got != region {
						t.Fatalf("dims=%d universe#%d: region(%d) = %v, box walk %v", dims, ui, prefix, got, region)
					}
					return
				}
				for q := 0; q < 1<<dims; q++ {
					walk(region.Child(q, dims), level+1, prefix<<dims|q)
				}
			}
			walk(u, 0, 0)
		}
	}
}

// TestBuildIsCanonical pins the structure the sieve path produces: the
// tree Build returns is node for node the tree reached by inserting the
// same points — in one batch, in sieve-sized batches and in batches small
// enough for the depth-1 path — and all of them validate.
func TestBuildIsCanonical(t *testing.T) {
	type input struct {
		name string
		dims int
		u    geom.Box
		pts  []geom.Point
	}
	var inputs []input
	for _, dist := range []workload.Dist{workload.Uniform, workload.Varden} {
		for _, dims := range []int{2, 3} {
			side := int64(1 << 18)
			// Large enough that the top round and its buckets fork.
			pts := workload.Generate(dist, 40_000, dims, side, 77)
			inputs = append(inputs, input{fmt.Sprintf("%s/%dD", dist, dims), dims, geom.UniverseBox(dims, side), pts})
		}
	}
	rng := rand.New(rand.NewSource(9))
	for ui, u := range awkwardUniverses(2) {
		pts := make([]geom.Point, 3000)
		for i := range pts {
			pts[i] = pointIn(rng, u, 2)
		}
		inputs = append(inputs, input{fmt.Sprintf("awkward#%d", ui), 2, u, pts})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			built := NewDefault(in.dims, in.u)
			built.Build(in.pts)
			validateOrFail(t, built)
			for _, batch := range []int{len(in.pts), 3000, smallBatch - 1} {
				if batch == smallBatch-1 && len(in.pts) > 10_000 {
					continue // covered by the 3000-point inputs
				}
				inc := NewDefault(in.dims, in.u)
				for lo := 0; lo < len(in.pts); lo += batch {
					inc.BatchInsert(in.pts[lo:min(lo+batch, len(in.pts))])
				}
				validateOrFail(t, inc)
				if !StructuralEqual(built, inc) {
					t.Fatalf("tree built by Build differs from %d-point batch inserts", batch)
				}
			}
		})
	}
}

func TestBuildRejectsOutsidePoints(t *testing.T) {
	// Both the leaf-sized path and the sieve path check the universe,
	// and a rejected Build leaves the tree as it was.
	for _, n := range []int{5, 5000} {
		pts := workload.GenUniform(n, 2, testSide, 3)
		tr := newTest2D()
		tr.Build(pts)
		bad := append([]geom.Point(nil), pts...)
		bad[n/2] = geom.Pt2(testSide+1, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d: Build accepted a point outside the universe", n)
				}
			}()
			tr.Build(bad)
		}()
		if tr.Size() != n {
			t.Fatalf("n=%d: rejected Build changed the tree (size %d)", n, tr.Size())
		}
		validateOrFail(t, tr)
	}
}

var sinkOffsets []int

// BenchmarkSievePoints is one construction round at the top of a 10^6
// point build: classify every point against the midpoint tables and
// scatter it into its bucket.
func BenchmarkSievePoints(b *testing.B) {
	const n = 1_000_000
	pts := make([][2]int32, n)
	for i, p := range workload.GenUniform(n, 2, testSide, 11) {
		pts[i] = geom.Pack[[2]int32](p)
	}
	buf := make([][2]int32, n)
	lam := newTest2D().Options().SkeletonLevels
	g := newGrid(universe(), lam, 2, spreadTables(lam, 2))
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkOffsets = parallel.Sieve(pts, buf, 1<<(g.lam*g.dims), func(p [2]int32) int { return bucket(g, p) })
	}
}

// bucketOf and quadrantOf classify a Point the way a tree classifies its
// stored form.
func bucketOf(g *grid, p geom.Point) int {
	if g.dims == 2 {
		return bucket(g, geom.Pack[[2]int32](p))
	}
	return bucket(g, geom.Pack[[3]int32](p))
}

func quadrantOf(u geom.Box, p geom.Point, dims int) int {
	m := mids(u, dims)
	if dims == 2 {
		return quadrant(&m, geom.Pack[[2]int32](p))
	}
	return quadrant(&m, geom.Pack[[3]int32](p))
}
