package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
)

func inBounds(t *testing.T, pts []geom.Point, dims int, side int64) {
	t.Helper()
	for i, p := range pts {
		for d := 0; d < dims; d++ {
			if p[d] < 0 || p[d] > side {
				t.Fatalf("point %d coord %d = %d out of [0,%d]", i, d, p[d], side)
			}
		}
		for d := dims; d < geom.MaxDims; d++ {
			if p[d] != 0 {
				t.Fatalf("point %d has nonzero unused dim %d", i, d)
			}
		}
	}
}

func TestGeneratorsBoundsAndDeterminism(t *testing.T) {
	for _, d := range []Dist{Uniform, Sweepline, Varden, Cosmo, OSM} {
		for _, dims := range []int{2, 3} {
			side := d.Side(dims)
			a := Generate(d, 5000, dims, side, 42)
			b := Generate(d, 5000, dims, side, 42)
			if len(a) != 5000 {
				t.Fatalf("%s: wrong size %d", d, len(a))
			}
			if !slices.Equal(a, b) {
				t.Fatalf("%s dims=%d: not deterministic", d, dims)
			}
			c := Generate(d, 5000, dims, side, 43)
			if slices.Equal(a, c) {
				t.Fatalf("%s: seed ignored", d)
			}
			inBounds(t, a, dims, side)
		}
	}
}

func TestSweeplineSorted(t *testing.T) {
	pts := GenSweepline(20000, 2, DefaultSide, 1)
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] {
			t.Fatalf("sweepline not sorted at %d", i)
		}
	}
}

// clusteringScore measures spatial skew as the fraction of occupied cells
// in a coarse grid: uniform data occupies nearly all cells, clustered data
// only a few.
func clusteringScore(pts []geom.Point, side int64) float64 {
	const g = 64
	occupied := map[[2]int64]bool{}
	for _, p := range pts {
		occupied[[2]int64{p[0] * g / (side + 1), p[1] * g / (side + 1)}] = true
	}
	return float64(len(occupied)) / (g * g)
}

func TestVardenIsClustered(t *testing.T) {
	n := 20000
	u := clusteringScore(GenUniform(n, 2, DefaultSide, 7), DefaultSide)
	v := clusteringScore(GenVarden(n, 2, DefaultSide, 7), DefaultSide)
	c := clusteringScore(GenCosmo(n, 2, DefaultSide, 7), DefaultSide)
	if v > u/2 {
		t.Fatalf("Varden not clustered: score %.3f vs uniform %.3f", v, u)
	}
	if c > v {
		t.Fatalf("Cosmo (%.3f) should cluster at least as hard as Varden (%.3f)", c, v)
	}
}

func TestOSMMixture(t *testing.T) {
	n := 20000
	o := clusteringScore(GenOSM(n, 2, DefaultSide, 7), DefaultSide)
	u := clusteringScore(GenUniform(n, 2, DefaultSide, 7), DefaultSide)
	v := clusteringScore(GenVarden(n, 2, DefaultSide, 7), DefaultSide)
	if !(o > v && o < u) {
		t.Fatalf("OSM score %.3f should sit between Varden %.3f and Uniform %.3f", o, v, u)
	}
}

func TestQueriesDistinctFromData(t *testing.T) {
	ind := InDQueries(Varden, 1000, 2, DefaultSide, 9)
	ood := OODQueries(Varden, 1000, 2, DefaultSide, 9)
	inBounds(t, ind, 2, DefaultSide)
	inBounds(t, ood, 2, DefaultSide)
	// OOD for clustered data is uniform: must occupy far more cells.
	if clusteringScore(ood, DefaultSide) < 2*clusteringScore(ind, DefaultSide) {
		t.Fatal("OOD queries should be much less clustered than InD for Varden")
	}
	// OOD for uniform data is clustered.
	oodU := OODQueries(Uniform, 1000, 2, DefaultSide, 9)
	indU := InDQueries(Uniform, 1000, 2, DefaultSide, 9)
	if clusteringScore(oodU, DefaultSide) > clusteringScore(indU, DefaultSide)/2 {
		t.Fatal("OOD queries for Uniform should be clustered")
	}
}

func TestRangeQueriesVolume(t *testing.T) {
	frac := 0.01
	boxes := RangeQueries(200, 2, DefaultSide, frac, 5)
	wantExt := int64(float64(DefaultSide) * math.Sqrt(frac))
	for i, b := range boxes {
		for d := 0; d < 2; d++ {
			if b.Lo[d] < 0 || b.Hi[d] > DefaultSide+wantExt {
				t.Fatalf("box %d out of range: %v", i, b)
			}
			if b.Side(d) != wantExt {
				t.Fatalf("box %d side %d, want %d", i, b.Side(d), wantExt)
			}
		}
	}
	// Tiny fraction must still give a valid (>=1 cell) box.
	tiny := RangeQueries(10, 3, 100, 1e-12, 5)
	for _, b := range tiny {
		if b.IsEmpty() {
			t.Fatal("tiny range box is empty")
		}
	}
}
