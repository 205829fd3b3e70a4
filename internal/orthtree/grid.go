package orthtree

import "repro/internal/geom"

// An orth-tree splits every dimension on its own: which half of the x
// side a point falls in never depends on its y. Routing therefore never
// needs a box. Where a point goes below a node is decided by comparing its
// coordinates with the node's D midpoints, and where it goes below λ
// levels at once by walking D binary trees of midpoints, one per
// dimension, and interleaving the D paths.

// mids returns the split coordinate of region in every dimension
// (Box.Mid).
func mids(region geom.Box, dims int) (m geom.Point) {
	for d := 0; d < dims; d++ {
		m[d] = region.Mid(d)
	}
	return m
}

// quadrant is Box.Quadrant of a stored point against precomputed
// midpoints: bit d is set iff p[d] > mid[d]. The comparison is the sign of
// mid-p, which cannot overflow for coordinates inside a universe whose
// sides Box.Mid can halve; there is no branch to mispredict on data that
// falls either way.
func quadrant[S geom.Packed](mid *geom.Point, p S) int {
	q := 0
	for d := range len(p) {
		q |= int(uint64(mid[d]-int64(p[d]))>>63) << d
	}
	return q
}

// grid is the implicit skeleton of one construction round (Alg. 1 lines
// 4-5): λ levels of splits below a region, 2^(λD) buckets. Per dimension
// it holds the binary tree of the 2^λ intervals the side is cut into, in
// heap order — node 1 is the whole side, node i has children 2i (low
// half) and 2i+1, the leaves are nodes 2^λ and up. Interval ends and
// midpoints are those of the Box.Child/Box.Mid walk, including its
// rounding and its empty halves of one-wide sides.
type grid struct {
	dims, lam   int
	whole       geom.Box
	lo, hi, mid [geom.MaxDims][]geom.Coord
	// spread[d][leaf] is the share of a bucket index that leaf node leaf
	// of dimension d contributes: bit l of its path at bit l·D+d.
	spread [geom.MaxDims][]int
}

// newGrid tabulates λ levels of splits below region; spread is
// spreadTables(lam, dims).
func newGrid(region geom.Box, lam, dims int, spread [geom.MaxDims][]int) *grid {
	g := &grid{dims: dims, lam: lam, whole: region, spread: spread}
	nodes := 2 << lam
	tab := make([]geom.Coord, g.dims*3*nodes)
	for d := 0; d < g.dims; d++ {
		lo, hi, mid := tab[:nodes], tab[nodes:2*nodes], tab[2*nodes:3*nodes]
		tab = tab[3*nodes:]
		lo[1], hi[1] = region.Lo[d], region.Hi[d]
		for i := 1; i < nodes/2; i++ {
			m := lo[i] + (hi[i]-lo[i])/2
			mid[i] = m
			lo[2*i], hi[2*i] = lo[i], m
			lo[2*i+1], hi[2*i+1] = m+1, hi[i]
		}
		g.lo[d], g.hi[d], g.mid[d] = lo, hi, mid
	}
	return g
}

// spreadTables returns grid.spread for lam levels in dims dimensions.
func spreadTables(lam, dims int) (s [geom.MaxDims][]int) {
	for d := 0; d < dims; d++ {
		s[d] = make([]int, 2<<lam)
		for path := 0; path < 1<<lam; path++ {
			for l := 0; l < lam; l++ {
				s[d][1<<lam|path] |= (path >> l & 1) << (l*dims + d)
			}
		}
	}
	return s
}

// bucket returns the skeleton bucket of p: per level, most significant
// first, the D quadrant bits of Box.Quadrant. It costs λ compares per
// dimension and no code.
func bucket[S geom.Packed](g *grid, p S) int {
	b, lam := 0, g.lam
	for d := range len(p) {
		mid, x, i := g.mid[d], int64(p[d]), 1
		for l := 0; l < lam; l++ {
			i = 2*i + int(uint64(mid[i]-x)>>63)
		}
		b |= g.spread[d][i]
	}
	return b
}

// region returns the region of bucket b.
func (g *grid) region(b int) geom.Box {
	r := g.whole
	for d := 0; d < g.dims; d++ {
		leaf := 1 << g.lam
		for l := 0; l < g.lam; l++ {
			leaf |= (b >> (l*g.dims + d) & 1) << l
		}
		r.Lo[d], r.Hi[d] = g.lo[d][leaf], g.hi[d][leaf]
	}
	return r
}
