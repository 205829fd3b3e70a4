package spactree

import (
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sfc"
	"repro/internal/shard"
	"repro/internal/workload"
)

// retired returns weak pointers to the nodes old reaches and cur does
// not: what a version displaced when cur was copied from it. A node cur
// reaches roots only nodes cur reaches, so the walk stops there.
func retired(old, cur *node2) []weak.Pointer[node2] {
	live := make(map[*node2]bool)
	var mark func(*node2)
	mark = func(nd *node2) {
		if nd != nil && !live[nd] {
			live[nd] = true
			mark(nd.left)
			mark(nd.right)
		}
	}
	mark(cur)
	var out []weak.Pointer[node2]
	var walk func(*node2)
	walk = func(nd *node2) {
		if nd != nil && !live[nd] {
			out = append(out, weak.Make(nd))
			walk(nd.left)
			walk(nd.right)
		}
	}
	walk(old)
	return out
}

// queryEverything runs KNN at small and large k and RangeList over a
// version, so that every pooled query buffer has held its nodes.
func queryEverything(idx core.Index) {
	var out []geom.Point
	for _, q := range workload.GenUniform(8, 2, testSide, 43) {
		for _, k := range []int{1, 20, 1000, idx.Size()} {
			out = idx.KNN(q, k, out[:0])
		}
	}
	for _, b := range workload.RangeQueries(8, 2, testSide, 0.05, 47) {
		out = idx.RangeList(b, out[:0])
	}
}

// assertCollected fails unless one collection reclaims every node in
// gone. One, not several: a sync.Pool keeps what it held for one cycle in
// its victim cache, which is exactly where a query buffer that was not
// cleared would pin a retired version.
func assertCollected(t *testing.T, gone []weak.Pointer[node2]) {
	t.Helper()
	if len(gone) == 0 {
		t.Fatal("the update displaced no node")
	}
	runtime.GC()
	pinned := 0
	for _, w := range gone {
		if w.Value() != nil {
			pinned++
		}
	}
	if pinned > 0 {
		t.Fatalf("%d of %d retired nodes still reachable after the last handle let go", pinned, len(gone))
	}
}

// TestQueriesPinNoRetiredVersion: a version's queries leave nothing behind
// that keeps the version alive once it is unpinned. A view is queried
// after the writer displaced part of its contents, then unpinned — the
// point where the version cell retires a version — and the displaced nodes
// must go with the next collection.
func TestQueriesPinNoRetiredVersion(t *testing.T) {
	pts := workload.GenVarden(20000, 2, testSide, 41)
	t.Run("tree", func(t *testing.T) {
		tr := NewSPaC(sfc.Hilbert, 2, universe())
		tr.Build(pts)
		old := tr.Pin().(*Tree)
		tr.BatchDelete(pts[:len(pts)/2])
		gone := retired(in2(old).root, in2(tr).root)
		queryEverything(old)
		tr.Unpin(old)
		assertCollected(t, gone)
	})
	// The same through a Sharded, whose KNN and RangeList fan out through
	// its own pooled query scratch.
	t.Run("sharded", func(t *testing.T) {
		var trees []*Tree
		s := shard.New(shard.Options{Dims: 2, Universe: universe(), Shards: 2,
			New: func(dims int, u geom.Box) core.Index {
				tr := NewSPaC(sfc.Hilbert, dims, u)
				trees = append(trees, tr)
				return tr
			}})
		s.Build(pts)
		old := s.Pin()
		roots := make([]*node2, len(trees)) // the view's, before the update
		for i, tr := range trees {
			roots[i] = in2(tr).root
		}
		s.BatchDelete(pts[:len(pts)/2])
		var gone []weak.Pointer[node2]
		for i, tr := range trees {
			gone = append(gone, retired(roots[i], in2(tr).root)...)
		}
		clear(roots)
		queryEverything(old)
		s.Unpin(old)
		assertCollected(t, gone)
	})
}

// BenchmarkKNN times SPaC-H KNN on the inputs the benchmark's KNN rows
// come from; orthtree's BenchmarkKNN runs the same ones for P-Orth.
// "interactive" is the track-interactive population: 5·10⁴ Varden homes,
// every point and every query a home plus an offset of up to 1 % of the
// side per axis, k = 20. The other four are the batch-index shape: n =
// 2·10⁵ uniform or Varden points, queries in distribution ("ind") or out
// of it ("ood"), k = 10.
func BenchmarkKNN(b *testing.B) {
	const side = workload.DefaultSide
	const nq = 1 << 12
	run := func(name string, pts, qs []geom.Point, k int) {
		tr := NewSPaC(sfc.Hilbert, 2, geom.UniverseBox(2, side))
		tr.Build(pts)
		b.Run(name, func(b *testing.B) {
			var nn []geom.Point
			i := 0
			for b.Loop() {
				nn = tr.KNN(qs[i%nq], k, nn[:0])
				i++
			}
		})
	}

	homes := workload.GenVarden(50_000, 2, side, 1)
	rng := rand.New(rand.NewSource(2))
	hop := func(h geom.Point) geom.Point {
		const r = side / 100
		for d := range 2 {
			h[d] = min(max(h[d]+rng.Int63n(2*r+1)-r, 0), side)
		}
		return h
	}
	pts := make([]geom.Point, len(homes))
	for i, h := range homes {
		pts[i] = hop(h)
	}
	qs := make([]geom.Point, nq)
	for i := range qs {
		qs[i] = hop(homes[rng.Intn(len(homes))])
	}
	run("interactive/k=20", pts, qs, 20)

	for _, d := range []workload.Dist{workload.Uniform, workload.Varden} {
		pts := workload.Generate(d, 200_000, 2, side, 3)
		run(string(d)+"/ind/k=10", pts, workload.InDQueries(d, nq, 2, side, 4), 10)
		run(string(d)+"/ood/k=10", pts, workload.OODQueries(d, nq, 2, side, 4), 10)
	}
}

type node2 = node[[2]int32]
