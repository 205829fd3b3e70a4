package orthtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// BenchmarkKNN times P-Orth KNN on the inputs the benchmark's KNN rows
// come from; spactree's BenchmarkKNN runs the same ones for SPaC-H.
// "interactive" is the track-interactive population: 5·10⁴ Varden homes,
// every point and every query a home plus an offset of up to 1 % of the
// side per axis, k = 20. The other four are the batch-index shape: n =
// 2·10⁵ uniform or Varden points, queries in distribution ("ind") or out
// of it ("ood"), k = 10.
func BenchmarkKNN(b *testing.B) {
	const side = workload.DefaultSide
	const nq = 1 << 12
	run := func(name string, pts, qs []geom.Point, k int) {
		tr := NewDefault(2, geom.UniverseBox(2, side))
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
