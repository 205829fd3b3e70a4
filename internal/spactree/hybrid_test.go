package spactree

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/sfc"
	"repro/internal/workload"
)

// pair is the sort element of Alg. 3's HybridSort as SPaC mode built
// before it sorted entries: a code and the point's index.
type pair struct {
	code uint64
	id   int32
}

// buildHybrid is that construction, kept as the oracle of Build: ⟨code,
// id⟩ pairs sorted by code (coordinates read only to order equal codes),
// then buildSortedPairs gathers coordinates into leaves.
func (t *tree[S]) buildHybrid(pts []geom.Point) *node[S] {
	if len(pts) == 0 {
		return nil
	}
	pairs := make([]pair, len(pts))
	for i, p := range pts {
		pairs[i] = pair{code: t.encode(p).Code, id: int32(i)}
	}
	parallel.SortByKey(pairs, func(pr pair) uint64 { return pr.code }, func(a, b pair) int {
		return geom.ComparePacked(geom.Pack[S](pts[a.id]), geom.Pack[S](pts[b.id]))
	})
	return t.buildSortedPairs(pts, pairs)
}

// buildSortedPairs is BuildSorted (Alg. 3 lines 20-31) over pairs: leaves
// gather their points by id (line 23).
func (t *tree[S]) buildSortedPairs(pts []geom.Point, pairs []pair) *node[S] {
	n := len(pairs)
	if n == 0 {
		return nil
	}
	if n <= t.opts.LeafWrap {
		blk := make([]S, n)
		for i, pr := range pairs {
			blk[i] = geom.Pack[S](pts[pr.id])
		}
		return &node[S]{size: n, gen: t.gen, bbox: geom.PackedBounds(blk), pts: blk, sorted: true}
	}
	m := n / 2
	k := Entry[S]{Code: pairs[m].code, P: geom.Pack[S](pts[pairs[m].id])}
	return t.rawNode(t.buildSortedPairs(pts, pairs[:m]), k, t.buildSortedPairs(pts, pairs[m+1:]))
}

// sameTree reports where two trees first differ in shape, pivots, boxes or
// leaf contents and order, "" when they do not.
func sameTree[S geom.Packed](a, b *node[S], at string) string {
	switch {
	case a == nil || b == nil:
		if a != b {
			return at + ": one side is empty"
		}
		return ""
	case a.size != b.size || a.bbox != b.bbox || a.isLeaf() != b.isLeaf():
		return fmt.Sprintf("%s: size %d/%d, box %v/%v", at, a.size, b.size, a.bbox, b.bbox)
	case a.isLeaf():
		if a.sorted != b.sorted || !slices.Equal(a.pts, b.pts) {
			return at + ": leaf points differ"
		}
		return ""
	case a.pivot != b.pivot:
		return fmt.Sprintf("%s: pivot %v/%v", at, a.pivot, b.pivot)
	}
	if d := sameTree(a.left, b.left, at+"L"); d != "" {
		return d
	}
	return sameTree(a.right, b.right, at+"R")
}

// TestBuildMatchesHybridSort: Build sorts ⟨code, point⟩ entries where Alg.
// 3 sorted ⟨code, id⟩ pairs and gathered; the tree must come out the same
// — shape, pivots, boxes and every leaf's points in order — on uniform and
// varden input, with duplicates, in 2-D and 3-D, over both curves, on
// either side of the fork cutoff.
func TestBuildMatchesHybridSort(t *testing.T) {
	for _, dims := range []int{2, 3} {
		side := testSide
		if dims == 3 {
			side = workload.DefaultSide3D
		}
		for _, curve := range []sfc.Curve{sfc.Hilbert, sfc.Morton} {
			for _, dist := range []workload.Dist{workload.Uniform, workload.Varden} {
				for _, n := range []int{0, 1, 40, seqCutoff - 1, 3*seqCutoff + 7, 50_000} {
					pts := workload.Generate(dist, n, dims, side, int64(n))
					for i := 0; i < n; i += 9 {
						pts[i] = pts[i/3] // duplicates: equal codes and equal points
					}
					tr := NewSPaC(curve, dims, geom.UniverseBox(dims, side))
					tr.Build(pts)
					validateOrFail(t, tr)
					var diff string
					switch b := tr.body.(type) {
					case *tree[[2]int32]:
						diff = sameTree(b.root, b.buildHybrid(pts), "root")
					case *tree[[3]int32]:
						diff = sameTree(b.root, b.buildHybrid(pts), "root")
					}
					if diff != "" {
						t.Fatalf("%d-D %s %s n=%d: Build and HybridSort differ at %s", dims, curve, dist, n, diff)
					}
				}
			}
		}
	}
}
