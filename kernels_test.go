package psi

import (
	"runtime"
	"testing"
)

// Tests of the construction kernels (table sieve routing, table Hilbert
// codes, keyed sort) through the ByName surface; the kernels' own
// equivalence tests sit beside them in internal/{orthtree,sfc,parallel}.

// TestEveryIndexValidatesAfterBuildAndDiff runs each index's own
// invariant checker — canonical form for P-Orth and the Zd-tree, order,
// balance and bounding boxes for the SPaC family — after a Build that
// takes the parallel paths and after a fused diff, on uniform and on
// clustered data.
func TestEveryIndexValidatesAfterBuildAndDiff(t *testing.T) {
	const n = 60_000
	for _, dist := range []Dist{Uniform, Varden} {
		pts := Generate(dist, n+n/10, 2, itSide, 21)
		for _, name := range allIndexNames {
			idx := ByName(name, 2, Universe2D(itSide))
			v, ok := idx.(interface{ Validate() error })
			if !ok {
				if name != "BruteForce" {
					t.Errorf("%s has no Validate", name)
				}
				continue
			}
			idx.Build(pts[:n])
			if err := v.Validate(); err != nil {
				t.Errorf("%s on %s after Build: %v", name, dist, err)
			}
			idx.BatchDiff(pts[n:], pts[:n/10])
			if err := v.Validate(); err != nil {
				t.Errorf("%s on %s after BatchDiff: %v", name, dist, err)
			}
			if idx.Size() != n {
				t.Errorf("%s on %s: size %d after an even exchange, want %d", name, dist, idx.Size(), n)
			}
		}
	}
}

// TestBuildAllocationBudget bounds what one Build allocates, in bytes per
// point at n = 2·10^5, by what it allocated before the kernels changed
// (the parent's figure and the measured one in the comment, a little slack
// on top). P-Orth allocates the tree and two arrays of int32 points, the
// narrowed input and the sieve's destination. The sort-built trees
// allocate the tree, the ⟨code, point⟩ entries and one sort buffer of the
// same size.
func TestBuildAllocationBudget(t *testing.T) {
	const n = 200_000
	pts := Generate(Uniform, n, 2, itSide, 5)
	for _, c := range []struct {
		name   string
		budget uint64
	}{
		{"P-Orth", 64},   // was 130; 58 with int32 points
		{"SPaC-H", 60},   // was 82; 62 with int32 points, 54 with point-only leaves, 49 sorting entries
		{"CPAM-H", 63},   // was 82; 57 with int32 points
		{"Zd-Tree", 117}, // was 115
	} {
		idx := ByName(c.name, 2, Universe2D(itSide))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx.Build(pts)
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / n
		if got > c.budget {
			t.Errorf("%s: Build allocates %d B/point, budget %d", c.name, got, c.budget)
		}
		t.Logf("%s: Build allocates %d B/point", c.name, got)
	}
}

// heap returns the live heap after a full collection.
func heap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestBuiltBytesPerPoint is the absolute size guard of the SPaC family: at
// n = 10⁵ a tree holds at most its ceiling in bytes per point after Build,
// the measured value and about 10 % (in the comment). A SPaC leaf stores
// its points alone, 8 B each in 2-D and 12 B in 3-D; a CPAM leaf keeps
// each point's code beside it; either tree adds about 8 B per point of
// 96-byte nodes in 2-D.
func TestBuiltBytesPerPoint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	const n = 100_000
	for _, c := range []struct {
		name    string
		dims    int
		ceiling float64
	}{
		{"SPaC-H", 2, 17.5}, // 15.9 (23.6 with ⟨code, point⟩ leaves)
		{"SPaC-H", 3, 23.1}, // 21.0 (32.8)
		{"CPAM-H", 2, 26.0}, // 23.6
		{"CPAM-H", 3, 36.1}, // 32.8
	} {
		u := Universe2D(itSide)
		if c.dims == 3 {
			u = Universe3D(itSide)
		}
		pts := Generate(Uniform, n, c.dims, itSide, 13)
		before := heap()
		idx := ByName(c.name, c.dims, u)
		idx.Build(pts)
		got := float64(heap()-before) / n
		runtime.KeepAlive(idx)
		runtime.KeepAlive(pts)
		t.Logf("%s %dD: %.1f B/pt after Build", c.name, c.dims, got)
		if got > c.ceiling {
			t.Errorf("%s %dD: %.1f B/pt after Build, ceiling %.1f", c.name, c.dims, got, c.ceiling)
		}
	}
}

// TestSteadyChurnHeap is the steady-size memory guard of the trees that
// store int32 points. At n = 10⁵, after 2n points are replaced in
// 10³-point rounds — an insert and a delete, or every third round one
// BatchDiff, as batch-index drives them — a tree holds at most 1.15 times
// the heap its Build left, per point. Leaf blocks that grew by append's
// doubling and never shrank held 1.4–1.6 times here.
func TestSteadyChurnHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	const n, b = 100_000, 1000
	for _, dims := range []int{2, 3} {
		u := Universe2D(itSide)
		if dims == 3 {
			u = Universe3D(itSide)
		}
		ring := Generate(Uniform, 3*n, dims, itSide, 11)
		for _, name := range []string{"P-Orth", "SPaC-H", "CPAM-H"} {
			before := heap()
			idx := ByName(name, dims, u)
			idx.Build(ring[:n])
			built := float64(heap()-before) / n
			for r := 0; r < 2*n/b; r++ {
				ins, del := ring[n+r*b:n+(r+1)*b], ring[r*b:(r+1)*b]
				if r%3 == 2 {
					idx.BatchDiff(ins, del)
				} else {
					idx.BatchInsert(ins)
					idx.BatchDelete(del)
				}
			}
			churned := float64(heap()-before) / n
			runtime.KeepAlive(idx)
			t.Logf("%s %dD: %.1f B/pt after Build, %.1f after churn (%.3f×)", name, dims, built, churned, churned/built)
			if churned > 1.15*built {
				t.Errorf("%s %dD: %.1f B/pt after churn, over 1.15 × the %.1f of Build", name, dims, churned, built)
			}
		}
	}
}
