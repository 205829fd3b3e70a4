// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§5, §D, §E): Fig. 3 (main 2D
// table), Fig. 4 (kNN vs k), Fig. 5 (range report vs output size), Fig. 6
// (real-world stand-ins), Fig. 7 (scalability), Fig. 8 (update/query
// trade-off), Fig. 9 (3D table), Fig. 10 (single-batch updates), plus the
// ablations of the paper's design choices (§C tuning and the SPaC
// leaf-order relaxation — see ARCHITECTURE.md for the layer-by-layer
// mapping). The serving layers this library adds on top of the paper are
// measured by the layer suite of the repo's benchmark (benchmark/), not
// here.
//
// Every measurement is a named Cell (cells.go); a figure is a Suite
// method that names its cells as it fills its tables, and Run times the
// experiments psibench asks for. The root package's BenchmarkFig* and
// BenchmarkAblation* targets run the same cells through testing.B.
// The harness follows the paper's protocol: one warm-up run,
// then the mean of Reps timed runs (§5 "We report numbers as the average
// of 3 runs after a warm-up run"), with dataset sizes scaled by a single
// -n flag so the same code runs on the paper's 112-core machine or a
// laptop.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"
)

// Config scales the experiments. Zero fields take defaults.
type Config struct {
	N       int       `json:"n"`       // dataset size (paper: 1e9; default here: 1e5 for tests, set 1e6+ in psibench)
	KNNQ    int       `json:"knnq"`    // number of kNN queries (paper: 1e7)
	RangeQ  int       `json:"rangeq"`  // number of range queries (paper: 5e4)
	Reps    int       `json:"reps"`    // timed repetitions after one warm-up
	Seed    int64     `json:"seed"`    // workload seed
	Threads int       `json:"threads"` // GOMAXPROCS for the run; 0 = leave as is
	Out     io.Writer `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 100_000
	}
	if c.KNNQ == 0 {
		c.KNNQ = c.N / 100
	}
	if c.RangeQ == 0 {
		c.RangeQ = 100
	}
	if c.Reps == 0 {
		c.Reps = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// indexNames2D is the paper's table order for 2D experiments.
var indexNames2D = []string{
	"P-Orth", "Zd-Tree", "SPaC-H", "SPaC-Z", "CPAM-H", "CPAM-Z", "Boost-R", "Pkd-Tree",
}

// indexNames3D is the reduced set of Fig. 9.
var indexNames3D = []string{"P-Orth", "SPaC-H", "Pkd-Tree"}

// parallelIndexes excludes the sequential Boost R-tree (no batch ops).
var parallelIndexes = []string{
	"P-Orth", "Zd-Tree", "SPaC-H", "SPaC-Z", "CPAM-H", "CPAM-Z", "Pkd-Tree",
}

// timeOp runs setup and the body it returns once for warm-up, then
// averages Reps timed runs of the body, each returned by its own untimed
// setup.
func timeOp(reps int, setup func() func()) float64 {
	setup()() // warm-up
	var total time.Duration
	for r := 0; r < reps; r++ {
		run := setup()
		start := time.Now()
		run()
		total += time.Since(start)
	}
	return total.Seconds() / float64(reps)
}

// timeOnce times a single execution (for operations too expensive or too
// stateful to repeat, e.g. full incremental runs).
func timeOnce(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// table accumulates rows and pretty-prints with the per-column best entry
// marked '*' (the paper bolds it): the least time, or the largest ratio in
// a column whose unit is "x".
type table struct {
	title   string
	columns []string
	units   []string // per-column measurement unit; "s" unless setUnits overrides
	rows    []tableRow
}

type tableRow struct {
	label string
	vals  []float64
}

func newTable(title string, columns ...string) *table {
	return &table{title: title, columns: columns, units: slices.Repeat([]string{"s"}, len(columns))}
}

// setUnits overrides the per-column units, one per column (Fig. 7 and 8
// report ratios, unit "x").
func (tb *table) setUnits(units ...string) *table {
	copy(tb.units, units)
	return tb
}

func (tb *table) add(label string, vals ...float64) {
	tb.rows = append(tb.rows, tableRow{label: label, vals: vals})
}

// write renders the table. NaN cells print as "N/A" (the paper uses N/A
// for unsupported operations, e.g. Boost-R batch updates).
func (tb *table) write(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", tb.title)
	fmt.Fprintf(w, "%-10s", "index")
	for _, c := range tb.columns {
		fmt.Fprintf(w, " %12s", c)
	}
	fmt.Fprintln(w)
	best := make([]float64, len(tb.columns))
	for i := range best {
		best[i] = nan
		for _, r := range tb.rows {
			v := r.vals[i]
			better := v < best[i]
			if tb.units[i] == "x" {
				better = v > best[i]
			}
			if !isNaN(v) && (isNaN(best[i]) || better) {
				best[i] = v
			}
		}
	}
	for _, r := range tb.rows {
		fmt.Fprintf(w, "%-10s", r.label)
		for i, v := range r.vals {
			switch {
			case isNaN(v):
				fmt.Fprintf(w, " %12s", "N/A")
			case v == best[i]:
				fmt.Fprintf(w, " %11.4f*", v)
			default:
				fmt.Fprintf(w, " %12.4f", v)
			}
		}
		fmt.Fprintln(w)
	}
}

var nan, isNaN = math.NaN(), math.IsNaN

// geoMean returns the geometric mean of positive values.
func geoMean(vals []float64) float64 {
	prod := 1.0
	n := 0
	for _, v := range vals {
		if v > 0 && !isNaN(v) {
			prod *= v
			n++
		}
	}
	if n == 0 {
		return nan
	}
	return math.Pow(prod, 1/float64(n))
}

// setThreads applies cfg.Threads and returns a restore func.
func setThreads(p int) func() {
	if p <= 0 {
		return func() {}
	}
	old := runtime.GOMAXPROCS(p)
	return func() { runtime.GOMAXPROCS(old) }
}
