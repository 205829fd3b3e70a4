package geom

import (
	"slices"
	"testing"
)

// TestRemoveEach drives both paths of the one multiset delete — swap-delete
// for small inputs, the counted sweep for large ones — against the
// definition: each request removes one occurrence if one is left.
func TestRemoveEach(t *testing.T) {
	seq := func(n int, start int64) (pts []Point) {
		for i := 0; i < n; i++ {
			pts = append(pts, Pt2(start+int64(i), 1))
		}
		return pts
	}
	rep := func(p Point, n int) []Point { return slices.Repeat([]Point{p}, n) }
	a, b := Pt2(1, 1), Pt2(2, 2)
	for _, tc := range []struct {
		name      string
		pts, del  []Point
		want      []Point
		swapPath  bool
		wantExact bool // the sweep keeps the survivors' order
	}{
		{name: "nothing requested", pts: []Point{a, b}, want: []Point{a, b}, swapPath: true},
		{name: "nothing stored", del: []Point{a}, swapPath: true},
		{name: "absent point ignored", pts: []Point{a}, del: []Point{b}, want: []Point{a}, swapPath: true},
		{name: "one of three duplicates", pts: []Point{a, b, a, a}, del: []Point{a}, want: []Point{a, a, b}, swapPath: true},
		{name: "more requests than occurrences", pts: []Point{a, b, a}, del: []Point{a, a, a}, want: []Point{b}, swapPath: true},
		{name: "8 requests, large slice: swap path", pts: seq(100, 0), del: seq(8, 10), want: append(seq(10, 0), seq(82, 18)...), swapPath: true},
		{name: "9 requests, 8 stored: swap path", pts: seq(8, 0), del: seq(9, 4), want: seq(4, 0), swapPath: true},
		{name: "9 requests, 9 stored: sweep", pts: seq(9, 0), del: seq(9, 4), want: seq(4, 0), wantExact: true},
		{name: "sweep with duplicates and absentees", pts: append(rep(a, 12), seq(20, 100)...), del: append(rep(a, 5), append(rep(b, 3), seq(10, 115)...)...),
			want: append(rep(a, 7), seq(15, 100)...), wantExact: true},
		{name: "sweep, over-requested duplicate", pts: append(rep(a, 9), b), del: rep(a, 20), want: []Point{b}, wantExact: true},
	} {
		if got := len(tc.del) <= 8 || len(tc.pts) <= 8; got != tc.swapPath {
			t.Fatalf("%s: the case is meant for the other path", tc.name)
		}
		got := RemoveEach(slices.Clone(tc.pts), tc.del)
		if !tc.wantExact {
			less := func(p, q Point) int { return slices.Compare(p[:], q[:]) }
			slices.SortFunc(got, less)
			slices.SortFunc(tc.want, less)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: RemoveEach left %v, want %v", tc.name, got, tc.want)
		}
	}
}
