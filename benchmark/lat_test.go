package main

import (
	"math"
	"testing"
)

// The percentile helper on a known distribution: the integers 1..n, where
// the nearest-rank q-quantile is ceil(q*n) exactly.
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		n      int
		q      float64
		want   int64
		tailOK bool
	}{
		{1000, 0.50, 500, true},
		{1000, 0.99, 990, true},   // exactly ten samples beyond
		{999, 0.99, 990, false},   // nine beyond: suppressed
		{1000, 0.999, 999, false}, // one beyond
		{20000, 0.999, 19980, true},
		{7, 0.50, 4, false},
		{1, 0.99, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.tailOK {
			t.Errorf("percentile(1..%d, %v) = %d, tail %t; want %d, tail %t", c.n, c.q, got, ok, c.want, c.tailOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported a tail")
	}
}

func TestMergedSortsAcrossRecorders(t *testing.T) {
	a, b := newRecorder(4), newRecorder(4)
	for _, v := range []int64{5, 1, 9} {
		a.add(0)
		a.ns[len(a.ns)-1] = v
	}
	for _, v := range []int64{4, 8} {
		b.add(0)
		b.ns[len(b.ns)-1] = v
	}
	got := merged(a, b)
	want := []int64{1, 4, 5, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// driver's measure of spread.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2, 9.5},
		{[]float64{2, 4}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v", got)
	}
}
