package geom

// CountPoints returns pts as a multiset: how often each point occurs.
func CountPoints[T comparable](pts []T) map[T]int {
	count := make(map[T]int, len(pts))
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
// swap-deleted, larger ones swept once against the counted requests. The
// points are Points or a tree's stored form of them (Packed).
func RemoveEach[T comparable](pts, del []T) []T {
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

// Keep returns the points of pts that keep accepts: pts itself when it
// accepts every one, a new slice otherwise. The trees drop the points of a
// delete batch that no stored point can equal with it.
func Keep(pts []Point, keep func(Point) bool) []Point {
	for i, p := range pts {
		if !keep(p) {
			out := append(make([]Point, 0, len(pts)-1), pts[:i]...)
			for _, p := range pts[i+1:] {
				if keep(p) {
					out = append(out, p)
				}
			}
			return out
		}
	}
	return pts
}
