package geom

// CountPoints returns pts as a multiset: how often each point occurs.
func CountPoints(pts []Point) map[Point]int {
	count := make(map[Point]int, len(pts))
	for _, p := range pts {
		count[p]++
	}
	return count
}

// RemoveEach is the library's one multiset delete: it removes from pts, in
// place, one occurrence per point of del — a point requested k times loses
// at most k occurrences, a request that matches nothing is ignored — and
// returns the shortened slice. Which occurrence of equal points goes is
// unspecified, and so is the order of the survivors: small inputs are
// swap-deleted, larger ones swept once against the counted requests.
func RemoveEach(pts, del []Point) []Point {
	if len(del) <= 8 || len(pts) <= 8 {
		for _, p := range del {
			for i, q := range pts {
				if q == p {
					pts[i] = pts[len(pts)-1]
					pts = pts[:len(pts)-1]
					break
				}
			}
		}
		return pts
	}
	want := CountPoints(del)
	out := pts[:0]
	for _, p := range pts {
		if c := want[p]; c > 0 {
			want[p] = c - 1
			continue
		}
		out = append(out, p)
	}
	return out
}
