package orthtree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// Property: any randomized operation sequence leaves the tree agreeing
// with the brute-force oracle and satisfying every structural invariant,
// across seeds, dimensionalities and coordinate densities (tiny sides
// force heavy duplication).
func TestQuickOpScripts(t *testing.T) {
	f := func(seed int64, dense bool, threeD bool) bool {
		dims := 2
		if threeD {
			dims = 3
		}
		side := int64(1 << 16)
		if dense {
			side = 40 // heavy duplicate pressure
		}
		tr := NewDefault(dims, geom.UniverseBox(dims, side))
		script := core.OpScript{
			Dims: dims, Side: side, Steps: 12, Seed: seed, MaxBatch: 300,
			Validate: tr.Validate,
		}
		if err := script.Run(tr); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: kNN distances are non-decreasing and within-bound, for any
// query point and k.
func TestQuickKNNSortedness(t *testing.T) {
	tr := NewDefault(2, universe())
	tr.Build(workload.GenVarden(5000, 2, testSide, 3))
	f := func(qx, qy uint32, kk uint8) bool {
		q := geom.Pt2(int64(qx)%(testSide+1), int64(qy)%(testSide+1))
		k := int(kk)%64 + 1
		nn := tr.KNN(q, k, nil)
		if len(nn) != min(k, tr.Size()) {
			return false
		}
		prev := int64(-1)
		for _, p := range nn {
			d := geom.Dist2(p, q, 2)
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: RangeCount equals len(RangeList) for arbitrary boxes,
// including inverted (empty) ones.
func TestQuickRangeCountMatchesList(t *testing.T) {
	tr := NewDefault(2, universe())
	tr.Build(workload.GenUniform(8000, 2, testSide, 5))
	f := func(ax, ay, bx, by uint32) bool {
		a := geom.Pt2(int64(ax)%(testSide+1), int64(ay)%(testSide+1))
		b := geom.Pt2(int64(bx)%(testSide+1), int64(by)%(testSide+1))
		box := geom.BoxOf(a, b) // possibly inverted -> empty
		return tr.RangeCount(box) == len(tr.RangeList(box, nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Boundary coordinates: points exactly on the universe corners and edges
// must build, route, and delete correctly.
func TestUniverseBoundaryPoints(t *testing.T) {
	u := universe()
	corners := []geom.Point{
		geom.Pt2(0, 0), geom.Pt2(testSide, 0), geom.Pt2(0, testSide),
		geom.Pt2(testSide, testSide),
		geom.Pt2(testSide/2, testSide/2),
		geom.Pt2(testSide/2+1, testSide/2+1), // just past the first split
	}
	pts := append([]geom.Point{}, corners...)
	pts = append(pts, workload.GenUniform(2000, 2, testSide, 7)...)
	tr := NewDefault(2, u)
	tr.Build(pts)
	validateOrFail(t, tr)
	for _, c := range corners {
		if got := tr.KNN(c, 1, nil); len(got) != 1 || geom.Dist2(got[0], c, 2) != 0 {
			t.Fatalf("corner %v not its own nearest neighbor", c)
		}
	}
	tr.BatchDelete(corners)
	if tr.Size() != 2000 {
		t.Fatalf("size %d after corner delete", tr.Size())
	}
	validateOrFail(t, tr)

	// The largest universes of the stored form — [0, 2³¹−1]², the SPaC
	// family's [0, 2²¹−1]³ and the widest cube whose squared diagonal fits
	// int64: corners and edges stay exact through Build, BatchDiff and
	// every query, against BruteForce. A leaf wrap of 4 makes the tree
	// deep. Refused at New: a side of 2³¹, and universes inside int32 whose
	// squared diagonal does not fit int64 (all of int32 in 2-D, one more
	// than the widest cube in 3-D).
	const cube3 = 1_753_413_056 // ⌊√((2⁶³−1)/3)⌋
	all2 := geom.BoxOf(geom.Pt2(math.MinInt32, math.MinInt32), geom.Pt2(math.MaxInt32, math.MaxInt32))
	for _, tc := range []struct {
		dims    int
		ok, bad []geom.Box
	}{
		{2, []geom.Box{geom.UniverseBox(2, math.MaxInt32)}, []geom.Box{geom.UniverseBox(2, 1<<31), all2}},
		{3, []geom.Box{geom.UniverseBox(3, 1<<21-1), geom.UniverseBox(3, cube3)}, []geom.Box{geom.UniverseBox(3, 1<<31), geom.UniverseBox(3, cube3+1)}},
	} {
		for _, u := range tc.ok {
			opts := core.DefaultOptions(tc.dims, u)
			opts.LeafWrap = 4
			tr := New(opts)
			if err := core.CheckBoundary(tr, u, tr.Validate); err != nil {
				t.Fatalf("%dD %v: %v", tc.dims, u, err)
			}
		}
		for _, u := range tc.bad {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%dD: universe %v was accepted", tc.dims, u)
					}
				}()
				NewDefault(tc.dims, u)
			}()
		}
	}
}

// RangeList must append to an existing buffer, not clobber it.
func TestRangeListAppendSemantics(t *testing.T) {
	tr := NewDefault(2, universe())
	tr.Build([]geom.Point{geom.Pt2(1, 1)})
	sentinel := geom.Pt2(-7, -7)
	out := tr.RangeList(universe(), []geom.Point{sentinel})
	if len(out) != 2 || out[0] != sentinel {
		t.Fatalf("append semantics broken: %v", out)
	}
}
