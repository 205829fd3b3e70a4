package bench

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// experiments are psibench's -exp ids, in the order "all" runs them;
// README's "Experiments" table maps each to the paper.
var experiments = []struct {
	id  string
	fig func(*Suite)
}{
	{"fig3", (*Suite).fig3}, {"fig4", (*Suite).fig4}, {"fig5", (*Suite).fig5},
	{"fig6", (*Suite).fig6}, {"fig7", (*Suite).fig7}, {"fig8", (*Suite).fig8},
	{"fig9", (*Suite).fig9}, {"fig10", (*Suite).fig10}, {"ablation", (*Suite).ablations},
}

// IDs returns every experiment id, in the order "all" runs them.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run times experiment id, or every experiment for "all", into tables on
// cfg.Out, and returns their cells as one psibench/v1 document; ok is
// false if no experiment has the id. Each experiment gets its own Suite,
// so its generated inputs go when it is done.
func Run(id string, cfg Config) (doc JSONDoc, ok bool) {
	cfg = cfg.withDefaults()
	doc = newDoc(id, cfg)
	defer setThreads(cfg.Threads)()
	for _, e := range experiments {
		if id == e.id || id == "all" {
			s := newSuite(cfg)
			s.doc = &doc
			e.fig(s)
			ok = true
		}
	}
	return doc, ok
}

var synthetic = []workload.Dist{workload.Uniform, workload.Sweepline, workload.Varden}

// batchRatios are Fig. 3's incremental batch sizes as fractions of n, and
// insCols/delCols the columns they fill.
var (
	batchRatios = []float64{0.10, 0.01, 0.001, 0.0001}
	insCols     = []string{"ins-10%", "ins-1%", "ins-0.1%", "ins-0.01%"}
	delCols     = []string{"del-10%", "del-1%", "del-0.1%", "del-0.01%"}
)

// incPath is the family (and column) of one incremental column of Fig. 3,
// 8 or 9: the 1% batches are <fig>IncInsert and <fig>IncDelete, the other
// batch sizes <fig>IncSweep/<column>.
func incPath(fig, col string) string {
	switch col {
	case "ins-1%":
		return fig + "IncInsert"
	case "del-1%":
		return fig + "IncDelete"
	}
	return fig + "IncSweep/" + col
}

func (s *Suite) fig3() {
	s.printf("Fig. 3 — synthetic 2D, n=%d (paper: 1e9), times in seconds\n", s.cfg.N)
	for _, dist := range synthetic {
		s.dynamic("Fig3", space{dist, 2}, indexNames2D)
	}
}

func (s *Suite) fig9() {
	s.printf("Fig. 9 — synthetic 3D, n=%d, coords [0,1e6] (§E)\n", s.cfg.N)
	for _, dist := range synthetic {
		s.dynamic("Fig9", space{dist, 3}, indexNames3D)
	}
}

// dynamic emits the three sub-tables (static, incremental insert,
// incremental delete) of one distribution of Fig. 3 or Fig. 9.
func (s *Suite) dynamic(fig string, sp space, names []string) {
	static := newTable(fmt.Sprintf("%s/%dD static: build(100%%) + queries on 50%% tree", sp.dist, sp.dims),
		append([]string{"build"}, queryCols...)...)
	ins := newTable(fmt.Sprintf("%s/%dD incremental insert (total) + queries at 50%%", sp.dist, sp.dims),
		append(slices.Clone(insCols), queryCols...)...)
	del := newTable(fmt.Sprintf("%s/%dD incremental delete (total) + queries at 50%%", sp.dist, sp.dims),
		append(slices.Clone(delCols), queryCols...)...)
	for _, name := range names {
		at := fmt.Sprintf("%s/%s", sp.dist, name)
		mk := maker(sp, name)
		build := nan // Boost-R: point updates only, N/A in the paper
		if name != "Boost-R" {
			build = s.at(fig+"Build/"+at, s.buildCell(sp, mk))
		}
		q := s.querySuite(fig+"Query", at, sp, queryCols, s.built(sp, name, mk, 2))
		static.add(name, append([]float64{build}, q...)...)
		if name == "Boost-R" {
			// The paper reports its queries after one-by-one updates,
			// which leave the static tree's contents.
			none := []float64{nan, nan, nan, nan}
			ins.add(name, append(none, q...)...)
			del.add(name, append(none, q...)...)
			continue
		}
		ins.add(name, s.incColumns(fig, at, insCols, "InsQuery", incRun{false, sp, name, mk, 0})...)
		del.add(name, s.incColumns(fig, at, delCols, "DelQuery", incRun{true, sp, name, mk, 0})...)
	}
	s.write(static, ins, del)
}

// incColumns times r at each of batchRatios into cols, then the query
// suite of family <fig><query> at the 50% point of the smallest ratio,
// which it takes inside that run: the run is timed as two stretches,
// "<column>-to50%" and "<column>-from50%", whose sum is the column, and
// the queries between them read the index the first one left.
func (s *Suite) incColumns(fig, at string, cols []string, query string, r incRun) []float64 {
	last := len(batchRatios) - 1
	vals := make([]float64, len(cols))
	for i, ratio := range batchRatios[:last] {
		r.ratio = ratio
		vals[i] = s.at(incPath(fig, cols[i])+"/"+at, s.runCell(r, 0, s.cfg.N))
	}
	r.ratio = batchRatios[last]
	b := batchOf(s.cfg.N, r.ratio)
	mid := min((s.cfg.N/2+b-1)/b*b, s.cfg.N) // the first batch boundary at or past 50%
	first := s.at(incPath(fig, cols[last]+"-to50%")+"/"+at, s.runCell(r, 0, mid))
	q := s.querySuite(fig+query, at, r.sp, queryCols, s.upto(r, mid))
	vals[last] = first + s.at(incPath(fig, cols[last]+"-from50%")+"/"+at, s.runCell(r, mid, s.cfg.N))
	return append(vals, q...)
}

// incState is the tree Fig. 4 and Fig. 5 query: built by incremental
// insertion (paper: 500M points, 0.01% batches; here 0.1% of the scaled
// n), Boost-R by one BatchInsert that inserts one by one.
func (s *Suite) incState(sp space, name string) state {
	ratio := 0.001
	if name == "Boost-R" {
		ratio = 1
	}
	return s.upto(incRun{false, sp, name, maker(sp, name), ratio}, s.cfg.N)
}

// incQueries emits Fig. 4's or Fig. 5's table for each synthetic
// distribution: columns cols of family on each index's incState tree,
// query i timed by the body of column i.
func (s *Suite) incQueries(family, title string, cols []string, query func(sp space, i int, idx core.Index) func()) {
	for _, dist := range synthetic {
		sp := space{dist, 2}
		tb := newTable(fmt.Sprintf(title, dist), cols...)
		for _, name := range indexNames2D {
			st := s.incState(sp, name)
			vals := make([]float64, len(cols))
			for i, col := range cols {
				vals[i] = s.at(fmt.Sprintf("%s/%s/%s/%s", family, col, dist, name),
					s.queryCell(st, func(idx core.Index) func() { return query(sp, i, idx) }))
			}
			tb.add(name, vals...)
		}
		s.write(tb)
	}
}

func (s *Suite) fig4() {
	s.printf("Fig. 4 — kNN vs k after incremental insertion, n=%d\n", s.cfg.N)
	ks := []int{1, 10, 100}
	s.incQueries("Fig4KNN", fmt.Sprintf("%%s: %d kNN queries", s.cfg.KNNQ),
		[]string{"k1-InD", "k10-InD", "k100-InD", "k1-OOD", "k10-OOD", "k100-OOD"},
		func(sp space, i int, idx core.Index) func() {
			q, k := s.queries(sp).ind, ks[i%len(ks)]
			if i >= len(ks) {
				q = s.queries(sp).ood
			}
			return func() { core.ParallelKNN(idx, q, k) }
		})
}

func (s *Suite) fig5() {
	s.printf("Fig. 5 — range-list time vs output size, n=%d\n", s.cfg.N)
	fracs := []float64{1e-5, 1e-4, 1e-3, 1e-2}
	cols := make([]string, len(fracs))
	for i, f := range fracs {
		cols[i] = fmt.Sprintf("out~%.0e", f*float64(s.cfg.N))
	}
	s.incQueries("Fig5Range", fmt.Sprintf("%%s: %d range-list queries per column", s.cfg.RangeQ), cols,
		func(sp space, i int, idx core.Index) func() {
			boxes := s.boxes(sp, fracs[i])
			return func() { core.ParallelRangeList(idx, boxes) }
		})
}

func (s *Suite) fig6() {
	s.printf("Fig. 6 — real-world stand-ins (synthetic substitutes, see internal/workload), n=%d\n", s.cfg.N)
	for _, sp := range []space{{workload.Cosmo, 3}, {workload.OSM, 2}} {
		tb := newTable(fmt.Sprintf("%s (%dD)", sp.dist, sp.dims), "build", "insert", "delete", "10NN", "rangeList")
		for _, name := range indexNames2D {
			at := fmt.Sprintf("%s/%s", sp.dist, name)
			mk := maker(sp, name)
			upd := []float64{nan, nan, nan} // Boost-R: point updates only
			if name != "Boost-R" {
				upd = []float64{
					s.at("Fig6Build/"+at, s.buildCell(sp, mk)),
					s.at("Fig6IncInsert/"+at, s.runCell(incRun{false, sp, name, mk, 0.0001}, 0, s.cfg.N)),
					s.at("Fig6IncDelete/"+at, s.runCell(incRun{true, sp, name, mk, 0.0001}, 0, s.cfg.N)),
				}
			}
			q := s.querySuite("Fig6Query", at, sp, []string{"10NN", "rangeList"}, s.built(sp, name, mk, 1))
			tb.add(name, append(upd, q...)...)
		}
		s.write(tb)
	}
}

// threadCounts are Fig. 7's thread counts: powers of two up to the core
// count, and the core count.
func threadCounts() []int {
	maxP := runtime.NumCPU()
	threads := []int{1}
	for p := 2; p <= maxP; p *= 2 {
		threads = append(threads, p)
	}
	if threads[len(threads)-1] != maxP {
		threads = append(threads, maxP)
	}
	return threads
}

// fig7 times build, and one 1% batch insert and delete on a full tree, at
// each thread count. SPaC-H's own p=1 cell is the base, so it reads 1.
func (s *Suite) fig7() {
	threads := threadCounts()
	s.printf("Fig. 7 — scalability, n=%d, threads %v (speedup vs 1-thread SPaC-H; higher is better)\n",
		s.cfg.N, threads)
	cols := make([]string, len(threads))
	for i, p := range threads {
		cols[i] = fmt.Sprintf("p=%d", p)
	}
	for _, dist := range synthetic {
		sp := space{dist, 2}
		batch := batchOf(s.cfg.N, 0.01)
		extra := func() []geom.Point { return s.extra(sp, batch, s.cfg.Seed+999) }
		prefix := func() []geom.Point { return s.pts(sp)[:batch] }
		for _, phase := range []struct {
			name, family string
			cell         func(name string) Cell
		}{
			{"build", "Fig7Build", func(name string) Cell { return s.buildCell(sp, maker(sp, name)) }},
			{"insert", "Fig7Insert", func(name string) Cell { return s.batchCell(sp, name, maker(sp, name), true, extra) }},
			{"delete", "Fig7Delete", func(name string) Cell { return s.batchCell(sp, name, maker(sp, name), false, prefix) }},
		} {
			tb := newTable(fmt.Sprintf("%s %s speedup", dist, phase.name), cols...).
				setUnits(slices.Repeat([]string{"x"}, len(cols))...)
			times := make([][]float64, len(parallelIndexes))
			for i, name := range parallelIndexes {
				for j, p := range threads {
					c := phase.cell(name)
					c.Threads = p
					times[i] = append(times[i], s.at(fmt.Sprintf("%s/%s/%s/%s", phase.family, cols[j], dist, name), c))
				}
			}
			base := times[slices.Index(parallelIndexes, "SPaC-H")][0]
			for i, name := range parallelIndexes {
				vals := make([]float64, len(threads))
				for j, t := range times[i] {
					vals[j] = base / t
				}
				tb.add(name, vals...)
			}
			s.write(tb)
		}
	}
}

// logIndexes are the Log-tree and BHL-tree: the paper places those two on
// Fig. 8 using numbers *estimated* from the Pkd-tree paper; here they are
// implemented and measured.
var logIndexes = []string{"Log-Tree", "BHL-Tree"}

// fig8 scores each index by the geometric mean of its build and 0.1%
// incremental insert and delete times — Fig. 3's cells for the parallel
// indexes — and of the query suite on the built tree.
func (s *Suite) fig8() {
	s.printf("Fig. 8 — update vs query performance (geometric means, throughput relative to best; 1.0 = best)\n")
	names := append(slices.Clone(parallelIndexes), logIndexes...)
	for _, dist := range synthetic {
		sp := space{dist, 2}
		update := make([]float64, len(names))
		query := make([]float64, len(names))
		for i, name := range names {
			at := fmt.Sprintf("%s/%s", dist, name)
			mk := maker(sp, name)
			fig := "Fig3"
			if slices.Contains(logIndexes, name) {
				fig = "Fig8"
			}
			update[i] = geoMean([]float64{
				s.at(fig+"Build/"+at, s.buildCell(sp, mk)),
				s.at(incPath(fig, "ins-0.1%")+"/"+at, s.runCell(incRun{false, sp, name, mk, 0.001}, 0, s.cfg.N)),
				s.at(incPath(fig, "del-0.1%")+"/"+at, s.runCell(incRun{true, sp, name, mk, 0.001}, 0, s.cfg.N)),
			})
			query[i] = geoMean(s.querySuite("Fig8Query", at, sp, queryCols, s.built(sp, name, mk, 1)))
		}
		bestU, bestQ := slices.Min(update), slices.Min(query)
		tb := newTable(fmt.Sprintf("%s: relative throughput (update, query)", dist), "update", "query").
			setUnits("x", "x")
		for i, name := range names {
			tb.add(name, bestU/update[i], bestQ/query[i])
		}
		s.write(tb)
	}
}

// fig10 times one batch insertion of new points, or deletion of the first
// points, of each size against a full-size tree.
func (s *Suite) fig10() {
	s.printf("Fig. 10 — single batch updates on a tree of n=%d (§D)\n", s.cfg.N)
	ratios := []float64{0.0001, 0.001, 0.01, 0.1, 1.0}
	var cols []string
	for _, op := range []string{"ins", "del"} {
		for _, r := range ratios {
			cols = append(cols, fmt.Sprintf("%s-%g", op, r))
		}
	}
	for _, dist := range synthetic {
		sp := space{dist, 2}
		tb := newTable(fmt.Sprintf("%s single-batch", dist), cols...)
		for _, name := range parallelIndexes {
			mk := maker(sp, name)
			vals := make([]float64, len(cols))
			for i, col := range cols {
				size := batchOf(s.cfg.N, ratios[i%len(ratios)])
				insert, batch := true, func() []geom.Point { return s.extra(sp, size, s.cfg.Seed+1234) }
				if i >= len(ratios) {
					insert, batch = false, func() []geom.Point { return s.pts(sp)[:size] }
				}
				vals[i] = s.at(fmt.Sprintf("Fig10Batch/%s/%s/%s", col, dist, name), s.batchCell(sp, name, mk, insert, batch))
			}
			tb.add(name, vals...)
		}
		s.write(tb)
	}
}
