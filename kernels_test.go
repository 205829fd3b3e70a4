package psi

import (
	"reflect"
	"runtime"
	"testing"
)

// Tests of the construction kernels (table sieve routing, table Hilbert
// codes, keyed sort) through the ByName surface; the kernels' own
// equivalence tests sit beside them in internal/{orthtree,sfc,parallel}.

// innerIndex digs the tree out of the replica wrapper every psi
// constructor applies, so a test can reach methods beyond Index.
func innerIndex(idx Index) Index {
	for {
		v := reflect.ValueOf(idx)
		if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
			return idx
		}
		f := v.Elem().FieldByName("Index")
		if !f.IsValid() || f.IsNil() {
			return idx
		}
		idx = f.Interface().(Index)
	}
}

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
			v, ok := innerIndex(idx).(interface{ Validate() error })
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
// (the parent's figure in the comment, a little slack on top). P-Orth no
// longer copies its input: the tree, the sieve's destination and one
// generation of per-bucket scratch remain. The sort-built trees allocate
// the tree, the ⟨code, id⟩ pairs or entries and one sort buffer of the
// same size, as before.
func TestBuildAllocationBudget(t *testing.T) {
	const n = 200_000
	pts := Generate(Uniform, n, 2, itSide, 5)
	for _, c := range []struct {
		name   string
		budget uint64
	}{
		{"P-Orth", 130},  // was 200
		{"SPaC-H", 82},   // was 80
		{"CPAM-H", 82},   // was 80
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
