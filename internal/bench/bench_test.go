package bench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/workload"
)

// The harness smoke tests run every experiment at a tiny scale: they
// verify the runners execute end to end, print every expected table, and
// never emit negative or absent timings for supported operations.

// run times experiment id at a tiny scale and returns what it printed and
// its document.
func run(t *testing.T, id string, threads int) (string, JSONDoc) {
	t.Helper()
	var buf bytes.Buffer
	doc, ok := Run(id, Config{N: 4000, KNNQ: 50, RangeQ: 10, Reps: 1, Seed: 1, Threads: threads, Out: &buf})
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	return buf.String(), doc
}

// smoke runs experiment id and fails unless its output has every want.
func smoke(t *testing.T, id string, wants ...string) (string, JSONDoc) {
	t.Helper()
	out, doc := run(t, id, 0)
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("%s output missing %q\n%s", id, want, out)
		}
	}
	return out, doc
}

func TestFig3Smoke(t *testing.T) {
	out, _ := smoke(t, "fig3", "uniform/2D static", "sweepline/2D incremental insert", "varden/2D incremental delete",
		"P-Orth", "SPaC-H", "CPAM-Z", "Boost-R", "Pkd-Tree")
	if strings.Contains(out, "NaN") {
		t.Fatal("raw NaN leaked into Fig3 output (should render as N/A)")
	}
}

// The title gives the query count itself (KNNQ 50).
func TestFig4Smoke(t *testing.T) { smoke(t, "fig4", "k1-InD", "k100-OOD", "varden: 50 kNN queries") }

func TestFig5Smoke(t *testing.T) { smoke(t, "fig5", "range-list time vs output size") }

func TestFig6Smoke(t *testing.T) { smoke(t, "fig6", "cosmo (3D)", "osm (2D)", "insert", "delete") }

func TestFig7Smoke(t *testing.T) {
	_, doc := smoke(t, "fig7", "p=1", "build speedup", "insert speedup", "delete speedup")
	// Speedups are over SPaC-H's own p=1 cell, so that cell is exactly 1.
	bases := 0
	for _, r := range doc.Results {
		if r.Index == "SPaC-H" && r.Column == "p=1" {
			bases++
			if r.Value != 1 {
				t.Errorf("%s: SPaC-H p=1 = %v, want exactly 1", r.Table, r.Value)
			}
		}
	}
	if bases != 9 {
		t.Fatalf("%d SPaC-H p=1 cells, want one per distribution and phase (9)", bases)
	}
}

func TestFig8Smoke(t *testing.T) { smoke(t, "fig8", "update vs query performance") }

func TestFig9Smoke(t *testing.T) {
	if out, _ := smoke(t, "fig9", "uniform/3D static", "SPaC-H"); strings.Contains(out, "Boost-R") {
		t.Fatal("Fig9 should use the reduced 3D index set")
	}
}

func TestFig10Smoke(t *testing.T) { smoke(t, "fig10", "ins-0.0001", "del-1", "single batch updates") }

func TestAblationsSmoke(t *testing.T) {
	smoke(t, "ablation", "lambda=3", "phi=40", "SPaC(part)", "points", "codes")
}

// TestJSONDocument parses the psibench/v1 document of a figure run: the
// header says what was run and on how many threads, and the table cells
// arrive as numbers.
func TestJSONDocument(t *testing.T) {
	_, ran := run(t, "fig10", 1)
	b, err := json.Marshal(ran)
	if err != nil {
		t.Fatal(err)
	}
	var doc JSONDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("psibench JSON does not parse: %v", err)
	}
	if doc.Schema != "psibench/v1" || doc.Experiment != "fig10" || doc.Config.N != 4000 {
		t.Fatalf("JSON header malformed: %+v", doc)
	}
	if doc.GOMAXPROCS != 1 {
		t.Fatalf("gomaxprocs = %d under Threads: 1", doc.GOMAXPROCS)
	}
	timed := false
	for _, r := range doc.Results {
		if r.Index == "SPaC-H" && r.Column == "ins-1" && r.Unit == "s" && r.Value > 0 {
			timed = true
		}
	}
	if !timed {
		t.Fatalf("no positive SPaC-H/ins-1 cell among %d results", len(doc.Results))
	}

	// Threads: 0 leaves GOMAXPROCS alone; the document says what that was.
	if doc := newDoc("fig10", Config{}); doc.GOMAXPROCS != runtime.GOMAXPROCS(0) || doc.Config.Threads != 0 {
		t.Fatalf("gomaxprocs = %d, config.threads = %d; want %d, 0", doc.GOMAXPROCS, doc.Config.Threads, runtime.GOMAXPROCS(0))
	}
}

// cellOf returns the cell at path, registered in s.
func cellOf(t *testing.T, s *Suite, path string) Cell {
	t.Helper()
	family, name, _ := strings.Cut(path, "/")
	for _, c := range s.Cells(family) {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no cell %s", path)
	return Cell{}
}

// TestBatchCellsShareOneTree checks that single-batch cells run on one
// Build: each Setup undoes the previous body's batch, so the tree holds n
// points before every body.
func TestBatchCellsShareOneTree(t *testing.T) {
	const n = 2000
	s := NewSuite(Config{N: n, Seed: 1})
	var tree any
	for _, col := range []string{"ins-0.1", "ins-0.1", "del-0.1", "del-1", "ins-1"} {
		run := cellOf(t, s, "Fig10Batch/"+col+"/uniform/SPaC-H").Setup()
		if s.state.Size() != n || (tree != nil && any(s.state) != tree) {
			t.Fatalf("%s: %d points before the body (want %d), or a rebuilt tree", col, s.state.Size(), n)
		}
		tree = s.state
		run()
	}
	if s.use(s.built(space{workload.Uniform, 2}, "SPaC-H", nil, 1)).Size() != n {
		t.Fatal("the last batch was not undone")
	}
}

// TestQueriesAtHalfReadTheRun checks that Fig. 3's queries at 50% read
// the index the timed run's first stretch left, which its second stretch
// then completes; run alone, the second stretch makes that index untimed.
func TestQueriesAtHalfReadTheRun(t *testing.T) {
	const n = 2000
	s := NewSuite(Config{N: n, Seed: 1})
	for _, c := range []struct{ op, query string }{{"ins", "InsQuery"}, {"del", "DelQuery"}} {
		cellOf(t, s, "Fig3IncSweep/"+c.op+"-0.01%-to50%/uniform/P-Orth").Setup()()
		half := s.state
		cellOf(t, s, "Fig3"+c.query+"/10NN-InD/uniform/P-Orth").Setup()()
		if half.Size() != n/2 || s.state != half {
			t.Fatalf("%s: the queries at 50%% read %d points, not the run's %d", c.op, s.state.Size(), n/2)
		}
		cellOf(t, s, "Fig3IncSweep/"+c.op+"-0.01%-from50%/uniform/P-Orth").Setup()()
		if s.state != half || half.Size() != map[string]int{"ins": n, "del": 0}[c.op] {
			t.Fatalf("%s: the second stretch did not complete the run (%d points)", c.op, half.Size())
		}
	}
	alone := NewSuite(Config{N: n, Seed: 1})
	cellOf(t, alone, "Fig3IncSweep/ins-0.01%-from50%/uniform/P-Orth").Setup()()
	if alone.state.Size() != n {
		t.Fatalf("second stretch alone: %d points, want %d", alone.state.Size(), n)
	}
}

func TestGeoMean(t *testing.T) {
	if g := geoMean([]float64{1, 4}); g != 2 {
		t.Fatalf("geoMean = %v", g)
	}
	if g := geoMean(nil); !isNaN(g) {
		t.Fatal("geoMean of empty should be NaN")
	}
}

func TestTableMarksFastest(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable("t", "a")
	tb.add("x", 2.0)
	tb.add("y", 1.0)
	tb.add("z", nan)
	tb.write(&buf)
	out := buf.String()
	if !strings.Contains(out, "1.0000*") {
		t.Fatalf("fastest not marked:\n%s", out)
	}
	if !strings.Contains(out, "N/A") {
		t.Fatal("NaN not rendered as N/A")
	}

	// A ratio column (unit "x") is higher-is-better: the largest is marked.
	buf.Reset()
	tb = newTable("t", "a").setUnits("x")
	tb.add("x", 0.25)
	tb.add("y", 1.0)
	tb.add("z", nan)
	tb.write(&buf)
	out = buf.String()
	if !strings.Contains(out, "1.0000*") || strings.Contains(out, "0.2500*") {
		t.Fatalf("largest ratio not marked:\n%s", out)
	}
}
