package bench

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"

	psi "repro"
)

// Cell is one timed measurement of the evaluation. Setup is untimed: it
// prepares the cell's state and returns the timed body. psibench times a
// cell in seconds into its figure's table; the root package's
// BenchmarkFig* and BenchmarkAblation* targets run the same cell in ns/op.
type Cell struct {
	Name    string // path below the family: "<dist>/<index>", "<column>/<dist>/<index>", …
	Threads int    // GOMAXPROCS for Setup and the body; 0 leaves it as is
	Once    bool   // a stretch of an incremental run: psibench times it once, without a warm-up
	Setup   func() (run func())
}

// Suite holds the cells of one Config and the generated inputs they
// share. A figure is a method that names each cell with at as it fills
// its tables: a timing suite (one with a doc, Run's) times the cell there,
// a registering one (NewSuite) only records it. Cells generate their
// inputs on first use, so registering costs no data generation.
type Suite struct {
	cfg      Config
	families map[string][]Cell
	paths    map[string]bool
	data     map[string]any
	doc      *JSONDoc   // where a timing suite records its tables' cells
	stateKey string     // the name of the one memoized untimed state cells share,
	state    core.Index // its index,
	undo     func()     // and the inverse of the batch a batchCell applied to it, if any
}

func newSuite(cfg Config) *Suite {
	return &Suite{
		cfg:      cfg.withDefaults(),
		families: map[string][]Cell{},
		paths:    map[string]bool{},
		data:     map[string]any{},
	}
}

// NewSuite returns every experiment's cells, untimed.
func NewSuite(cfg Config) *Suite {
	s := newSuite(cfg)
	for _, e := range experiments {
		e.fig(s)
	}
	return s
}

// Cells returns a family's cells in the order psibench times them (nil if
// the family does not exist). A family is what one root benchmark target
// runs.
func (s *Suite) Cells(family string) []Cell { return s.families[family] }

// Families returns every family's name, sorted.
func (s *Suite) Families() []string {
	return slices.Sorted(maps.Keys(s.families))
}

// at names c by its full path, "<family>/<name>", and returns its time in
// seconds with the harness protocol: one warm-up, then the mean of Reps
// timed runs, each after its own Setup; a Once cell is set up and timed a
// single time. A registering suite records c and returns NaN. A path
// named again (Fig. 8 reuses Fig. 3's update cells) is one cell.
func (s *Suite) at(path string, c Cell) float64 {
	if !s.paths[path] {
		s.paths[path] = true
		family, name, _ := strings.Cut(path, "/")
		c.Name = name
		s.families[family] = append(s.families[family], c)
	}
	if s.doc == nil {
		return nan
	}
	defer setThreads(c.Threads)()
	if c.Once {
		return timeOnce(c.Setup())
	}
	return timeOp(s.cfg.Reps, c.Setup)
}

func (s *Suite) printf(format string, args ...any) {
	if s.doc != nil {
		fmt.Fprintf(s.cfg.Out, format, args...)
	}
}

// write prints tables and records their cells in the suite's document.
func (s *Suite) write(tbs ...*table) {
	if s.doc == nil {
		return
	}
	for _, tb := range tbs {
		tb.write(s.cfg.Out)
		s.doc.Results = append(s.doc.Results, tb.results()...)
	}
}

// cached returns the input stored under key, making it on first use.
func cached[T any](s *Suite, key string, make func() T) T {
	if v, ok := s.data[key]; ok {
		return v.(T)
	}
	v := make()
	s.data[key] = v
	return v
}

// space is one dataset: a distribution in a dimension.
type space struct {
	dist workload.Dist
	dims int
}

func (sp space) side() int64 { return sp.dist.Side(sp.dims) }

// pts is the dataset of n points every cell over sp indexes.
func (s *Suite) pts(sp space) []geom.Point {
	return s.extra(sp, s.cfg.N, s.cfg.Seed)
}

// extra is a point set over sp of size n from seed.
func (s *Suite) extra(sp space, n int, seed int64) []geom.Point {
	return cached(s, fmt.Sprintf("pts/%s/%d/%d/%d", sp.dist, sp.dims, n, seed), func() []geom.Point {
		return workload.Generate(sp.dist, n, sp.dims, sp.side(), seed)
	})
}

// querySet bundles the standard query suite for a dataset.
type querySet struct {
	ind, ood []geom.Point
	boxes    []geom.Box
}

func (s *Suite) queries(sp space) querySet {
	return cached(s, fmt.Sprintf("qs/%s/%d", sp.dist, sp.dims), func() querySet {
		return querySet{
			ind: workload.InDQueries(sp.dist, s.cfg.KNNQ, sp.dims, sp.side(), s.cfg.Seed),
			ood: workload.OODQueries(sp.dist, s.cfg.KNNQ, sp.dims, sp.side(), s.cfg.Seed),
			// ~0.1% of the universe volume: the paper's "relatively large
			// range query" column scaled to n.
			boxes: s.boxes(sp, 1e-3),
		}
	})
}

func (s *Suite) boxes(sp space, frac float64) []geom.Box {
	return cached(s, fmt.Sprintf("boxes/%d/%g", sp.dims, frac), func() []geom.Box {
		return workload.RangeQueries(s.cfg.RangeQ, sp.dims, sp.side(), frac, s.cfg.Seed)
	})
}

// maker returns the constructor of a fresh index by table name.
func maker(sp space, name string) func() core.Index {
	return func() core.Index { return psi.ByName(name, sp.dims, geom.UniverseBox(sp.dims, sp.side())) }
}

func batchOf(n int, ratio float64) int {
	return max(int(float64(n)*ratio), 1)
}

// state is an untimed index state that cells share: its name, which says
// what it contains, and how to make it when it is not the memoized one.
type state struct {
	key  string
	make func() core.Index
}

// use returns st's index: the memoized one, with the batch a batchCell
// applied to it undone, or a new one. Only one state is kept, so a figure
// holds one index beside the cell it times.
func (s *Suite) use(st state) core.Index {
	if s.stateKey == st.key {
		if s.undo != nil {
			s.undo()
			s.undo = nil
		}
		return s.state
	}
	s.keep("", nil) // let the old state go before the next is made
	s.keep(st.key, st.make())
	return s.state
}

// keep makes idx the memoized state named key.
func (s *Suite) keep(key string, idx core.Index) {
	s.stateKey, s.state, s.undo = key, idx, nil
}

// keyOf names an index state: what was done, to which dataset, by which
// index.
func keyOf(what string, sp space, label string) string {
	return fmt.Sprintf("%s/%s/%d/%s", what, sp.dist, sp.dims, label)
}

// built is the first n/div points built in one Build.
func (s *Suite) built(sp space, label string, mk func() core.Index, div int) state {
	return state{keyOf(fmt.Sprintf("build/%d", div), sp, label), func() core.Index {
		idx := mk()
		idx.Build(s.pts(sp)[:s.cfg.N/div])
		return idx
	}}
}

// buildCell times Build of the whole dataset into a fresh index.
func (s *Suite) buildCell(sp space, mk func() core.Index) Cell {
	return Cell{Setup: func() func() {
		idx, pts := mk(), s.pts(sp)
		return func() { idx.Build(pts) }
	}}
}

// batchCell times one batch insertion (or deletion) of the points batch
// returns on an index of the whole dataset. That index is built once and
// shared: its next user undoes the batch first, deleting the inserted
// points or reinserting the deleted ones, so a repeated Setup costs one
// batch, not a Build.
func (s *Suite) batchCell(sp space, label string, mk func() core.Index, insert bool, batch func() []geom.Point) Cell {
	return Cell{Setup: func() func() {
		idx, b := s.use(s.built(sp, label, mk, 1)), batch()
		op, inv := idx.BatchInsert, idx.BatchDelete
		if !insert {
			op, inv = inv, op
		}
		s.undo = func() { inv(b) }
		return func() { op(b) }
	}}
}

// incRun is an incremental run: the dataset inserted into an empty index,
// or deleted from a full one, in batches of ratio·n.
type incRun struct {
	del   bool
	sp    space
	label string // the index
	mk    func() core.Index
	ratio float64
}

// apply runs r's batches over the dataset's points [from, to) on idx.
func (s *Suite) apply(r incRun, idx core.Index, from, to int) {
	pts := s.pts(r.sp)
	op := core.Index.BatchInsert
	if r.del {
		op = core.Index.BatchDelete
	}
	for b := batchOf(len(pts), r.ratio); from < to; from += b {
		op(idx, pts[from:min(from+b, to)])
	}
}

// start is r's index before its first batch.
func (s *Suite) start(r incRun) core.Index {
	idx := r.mk()
	if r.del {
		idx.Build(s.pts(r.sp))
	}
	return idx
}

// upto is the state r's index is in once its batches reach point upto.
func (s *Suite) upto(r incRun, upto int) state {
	op := "ins"
	if r.del {
		op = "del"
	}
	return state{keyOf(fmt.Sprintf("%s%g@%d", op, r.ratio, upto), r.sp, r.label), func() core.Index {
		idx := s.start(r)
		s.apply(r, idx, 0, upto)
		return idx
	}}
}

// runCell times r's batches from point from to point to: from a fresh
// index at from = 0, else on the index an earlier stretch of the run left
// (made untimed when that is not the memoized state). Once timed, the
// index is the state upto(r, to), which query cells at that point and the
// run's next stretch share.
func (s *Suite) runCell(r incRun, from, to int) Cell {
	return Cell{Once: true, Setup: func() func() {
		var idx core.Index
		if from == 0 {
			s.keep("", nil)
			idx = s.start(r)
		} else {
			idx = s.use(s.upto(r, from))
		}
		s.keep(s.upto(r, to).key, idx)
		return func() { s.apply(r, idx, from, to) }
	}}
}

// queryCell times a query body bound, in Setup, to st's index.
func (s *Suite) queryCell(st state, bind func(core.Index) func()) Cell {
	return Cell{Setup: func() func() { return bind(s.use(st)) }}
}

// queryCols are the standard query suite's columns; queries run in
// parallel over the query set, matching §5.1 ("Different queries run in
// parallel").
var queryCols = []string{"10NN-InD", "10NN-OOD", "rangeCnt", "rangeList"}

// stdQuery binds one standard query column over sp to an index.
func (s *Suite) stdQuery(sp space, col string) func(core.Index) func() {
	return func(idx core.Index) func() {
		qs := s.queries(sp)
		switch col {
		case "10NN-InD", "10NN":
			return func() { core.ParallelKNN(idx, qs.ind, 10) }
		case "10NN-OOD":
			return func() { core.ParallelKNN(idx, qs.ood, 10) }
		case "rangeCnt":
			return func() { core.ParallelRangeCount(idx, qs.boxes) }
		case "rangeList":
			return func() { core.ParallelRangeList(idx, qs.boxes) }
		}
		panic("bench: no query column " + col)
	}
}

// querySuite times the query columns cols of family over sp, at name
// "<column>/<at>", on st's index.
func (s *Suite) querySuite(family, at string, sp space, cols []string, st state) []float64 {
	vals := make([]float64, len(cols))
	for i, col := range cols {
		vals[i] = s.at(family+"/"+col+"/"+at, s.queryCell(st, s.stdQuery(sp, col)))
	}
	return vals
}
