// Benchmarks regenerating the paper's tables and figures as testing.B
// targets. Each target is one family of internal/bench's cells, the same
// cells cmd/psibench times into its tables: a cell here measures what the
// psibench cell of the same path measures (`Fig3Build/uniform/P-Orth` is
// the build column of psibench's Fig. 3 uniform table), with the seed and
// query counts of bench.Config's defaults. See the experiment mapping
// table in README.md.
//
// Scale: n = 50k points so the suite runs in minutes on a laptop; the
// shapes (who wins, by what factor) are the reproduction target, not
// absolute times. Run psibench at 1e6+ for table-quality numbers.
package psi_test

import (
	"os"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bench"
)

const benchN = 50_000

// runCells runs a family's cells, one sub-benchmark each, with every
// cell's setup outside the timer.
func runCells(b *testing.B, family string) {
	cells := bench.NewSuite(bench.Config{N: benchN}).Cells(family)
	if len(cells) == 0 {
		b.Fatalf("no cells in family %q", family)
	}
	for _, c := range cells {
		b.Run(c.Name, func(b *testing.B) {
			if c.Threads > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.Threads))
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run := c.Setup()
				b.StartTimer()
				run()
			}
		})
	}
}

// TestEveryCellHasATarget holds this file to internal/bench: every cell
// family is run by exactly one benchmark target.
func TestEveryCellHasATarget(t *testing.T) {
	src, err := os.ReadFile("bench_test.go")
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, m := range regexp.MustCompile(`runCells\(b, "(\w+)"\)`).FindAllSubmatch(src, -1) {
		targets = append(targets, string(m[1]))
	}
	slices.Sort(targets)
	if families := bench.NewSuite(bench.Config{N: benchN}).Families(); !slices.Equal(targets, families) {
		t.Fatalf("targets run %v, internal/bench has families %v", targets, families)
	}
}

// Fig. 3: build, the query suite on a half-built tree, incremental insert
// and delete (1% batches in IncInsert/IncDelete, the other batch sizes in
// IncSweep), and the query suite at the 50% point of 0.01% batches. The
// 0.01% runs are timed in two halves, IncSweep/<column>-to50% and
// -from50%, whose sum is psibench's column.
func BenchmarkFig3Build(b *testing.B)     { runCells(b, "Fig3Build") }
func BenchmarkFig3Query(b *testing.B)     { runCells(b, "Fig3Query") }
func BenchmarkFig3IncInsert(b *testing.B) { runCells(b, "Fig3IncInsert") }
func BenchmarkFig3IncDelete(b *testing.B) { runCells(b, "Fig3IncDelete") }
func BenchmarkFig3IncSweep(b *testing.B)  { runCells(b, "Fig3IncSweep") }
func BenchmarkFig3InsQuery(b *testing.B)  { runCells(b, "Fig3InsQuery") }
func BenchmarkFig3DelQuery(b *testing.B)  { runCells(b, "Fig3DelQuery") }

// Fig. 4 and 5: kNN vs k, range-list vs output size.
func BenchmarkFig4KNN(b *testing.B)   { runCells(b, "Fig4KNN") }
func BenchmarkFig5Range(b *testing.B) { runCells(b, "Fig5Range") }

// Fig. 6: the real-world stand-ins.
func BenchmarkFig6Build(b *testing.B)     { runCells(b, "Fig6Build") }
func BenchmarkFig6IncInsert(b *testing.B) { runCells(b, "Fig6IncInsert") }
func BenchmarkFig6IncDelete(b *testing.B) { runCells(b, "Fig6IncDelete") }
func BenchmarkFig6Query(b *testing.B)     { runCells(b, "Fig6Query") }

// Fig. 7: scalability; each cell sets its own thread count.
func BenchmarkFig7Build(b *testing.B)  { runCells(b, "Fig7Build") }
func BenchmarkFig7Insert(b *testing.B) { runCells(b, "Fig7Insert") }
func BenchmarkFig7Delete(b *testing.B) { runCells(b, "Fig7Delete") }

// Fig. 8: the update/query trade-off's inputs. The parallel indexes'
// update cells are Fig. 3's; these are the Log-tree's and BHL-tree's, and
// the query suite on the built tree.
func BenchmarkFig8Build(b *testing.B)    { runCells(b, "Fig8Build") }
func BenchmarkFig8IncSweep(b *testing.B) { runCells(b, "Fig8IncSweep") }
func BenchmarkFig8Query(b *testing.B)    { runCells(b, "Fig8Query") }

// Fig. 9: Fig. 3 in 3D, reduced index set.
func BenchmarkFig9Build(b *testing.B)     { runCells(b, "Fig9Build") }
func BenchmarkFig9Query(b *testing.B)     { runCells(b, "Fig9Query") }
func BenchmarkFig9IncInsert(b *testing.B) { runCells(b, "Fig9IncInsert") }
func BenchmarkFig9IncDelete(b *testing.B) { runCells(b, "Fig9IncDelete") }
func BenchmarkFig9IncSweep(b *testing.B)  { runCells(b, "Fig9IncSweep") }
func BenchmarkFig9InsQuery(b *testing.B)  { runCells(b, "Fig9InsQuery") }
func BenchmarkFig9DelQuery(b *testing.B)  { runCells(b, "Fig9DelQuery") }

// Fig. 10: one batch insert or delete against a full tree.
func BenchmarkFig10Batch(b *testing.B) { runCells(b, "Fig10Batch") }

// Ablations: skeleton depth λ, leaf wrap φ, partial vs total leaf order,
// HybridSort vs plain construction.
func BenchmarkAblationLambda(b *testing.B)     { runCells(b, "AblationLambda") }
func BenchmarkAblationLeafWrap(b *testing.B)   { runCells(b, "AblationLeafWrap") }
func BenchmarkAblationLeafOrder(b *testing.B)  { runCells(b, "AblationLeafOrder") }
func BenchmarkAblationHybridSort(b *testing.B) { runCells(b, "AblationHybridSort") }
