package bench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// The harness smoke tests run every experiment at a tiny scale: they
// verify the runners execute end to end, print every expected table, and
// never emit negative or absent timings for supported operations.

func tinyConfig(buf *bytes.Buffer) Config {
	return Config{N: 4000, KNNQ: 50, RangeQ: 10, Reps: 1, Seed: 1, Out: buf}
}

func TestFig3Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig3(tinyConfig(&buf))
	out := buf.String()
	for _, want := range []string{
		"uniform/2D static", "sweepline/2D incremental insert", "varden/2D incremental delete",
		"P-Orth", "SPaC-H", "CPAM-Z", "Boost-R", "Pkd-Tree",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig3 output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Fatal("raw NaN leaked into Fig3 output (should render as N/A)")
	}
}

func TestFig4Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig4(tinyConfig(&buf))
	for _, want := range []string{"k1-InD", "k100-OOD", "varden"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Fig4 output missing %q", want)
		}
	}
}

func TestFig5Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig5(tinyConfig(&buf))
	if !strings.Contains(buf.String(), "range-list time vs output size") {
		t.Fatal("Fig5 header missing")
	}
}

func TestFig6Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig6(tinyConfig(&buf))
	out := buf.String()
	for _, want := range []string{"cosmo (3D)", "osm (2D)", "insert", "delete"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig6 output missing %q", want)
		}
	}
}

func TestFig7Smoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	Fig7(cfg)
	out := buf.String()
	for _, want := range []string{"p=1", "build speedup", "insert speedup", "delete speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig7 output missing %q", want)
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig8(tinyConfig(&buf))
	if !strings.Contains(buf.String(), "update vs query performance") {
		t.Fatal("Fig8 header missing")
	}
}

func TestFig9Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig9(tinyConfig(&buf))
	out := buf.String()
	if !strings.Contains(out, "uniform/3D static") || !strings.Contains(out, "SPaC-H") {
		t.Fatalf("Fig9 output incomplete:\n%s", out)
	}
	if strings.Contains(out, "Boost-R") {
		t.Fatal("Fig9 should use the reduced 3D index set")
	}
}

func TestFig10Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig10(tinyConfig(&buf))
	out := buf.String()
	for _, want := range []string{"ins-0.0001", "del-1", "single batch updates"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig10 output missing %q", want)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	var buf bytes.Buffer
	Ablations(tinyConfig(&buf))
	out := buf.String()
	for _, want := range []string{"lambda=3", "phi=40", "SPaC(part)", "hybrid", "plain"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Ablations output missing %q", want)
		}
	}
}

// TestJSONDocument parses the psibench/v1 document of a figure run: the
// header says what was run and on how many threads, and the table cells
// arrive as numbers.
func TestJSONDocument(t *testing.T) {
	var buf, jsonBuf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Threads = 1
	StartJSON("fig10", cfg)
	Fig10(cfg)
	if err := WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var doc JSONDoc
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("psibench JSON does not parse: %v", err)
	}
	if doc.Schema != "psibench/v1" || doc.Experiment != "fig10" || doc.Config.N != cfg.N {
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
	cfg.Threads = 0
	jsonBuf.Reset()
	StartJSON("fig10", cfg)
	if err := WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	doc = JSONDoc{}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.GOMAXPROCS != runtime.GOMAXPROCS(0) || doc.Config.Threads != 0 {
		t.Fatalf("gomaxprocs = %d, config.threads = %d; want %d, 0", doc.GOMAXPROCS, doc.Config.Threads, runtime.GOMAXPROCS(0))
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
}
