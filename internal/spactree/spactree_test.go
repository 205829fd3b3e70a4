package spactree

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sfc"
	"repro/internal/workload"
)

const testSide = int64(1 << 20)

func universe() geom.Box { return geom.UniverseBox(2, testSide) }

// allVariants returns the four paper configurations.
func allVariants() []*Tree {
	return []*Tree{
		NewSPaC(sfc.Hilbert, 2, universe()),
		NewSPaC(sfc.Morton, 2, universe()),
		NewCPAM(sfc.Hilbert, 2, universe()),
		NewCPAM(sfc.Morton, 2, universe()),
	}
}

func validateOrFail(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", tr.Name(), err)
	}
}

func TestNames(t *testing.T) {
	want := []string{"SPaC-H", "SPaC-Z", "CPAM-H", "CPAM-Z"}
	for i, tr := range allVariants() {
		if tr.Name() != want[i] {
			t.Fatalf("name %q, want %q", tr.Name(), want[i])
		}
	}
}

func TestEmptyTree(t *testing.T) {
	for _, tr := range allVariants() {
		if tr.Size() != 0 || len(tr.KNN(geom.Pt2(0, 0), 3, nil)) != 0 || tr.RangeCount(universe()) != 0 {
			t.Fatalf("%s: empty tree misbehaves", tr.Name())
		}
		tr.BatchDelete([]geom.Point{geom.Pt2(1, 1)})
		validateOrFail(t, tr)
	}
}

func TestPrecisionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: 3D universe exceeding 21-bit precision")
		}
	}()
	NewSPaC(sfc.Hilbert, 3, geom.UniverseBox(3, 1<<22))
}

func TestBuildMatchesBruteForce(t *testing.T) {
	for _, tr := range allVariants() {
		for _, dist := range []workload.Dist{workload.Uniform, workload.Sweepline, workload.Varden} {
			for _, n := range []int{0, 1, 40, 41, 1000, 20000} {
				pts := workload.Generate(dist, n, 2, testSide, 7)
				tr.Build(pts)
				validateOrFail(t, tr)
				ref := core.NewBruteForce(2)
				ref.Build(pts)
				queries := workload.GenUniform(20, 2, testSide, 9)
				boxes := workload.RangeQueries(10, 2, testSide, 0.01, 11)
				if err := core.VerifyQueries(tr, ref, queries, []int{1, 10}, boxes); err != nil {
					t.Fatalf("%s %s n=%d: %v", tr.Name(), dist, n, err)
				}
			}
		}
	}
}

func TestBuild3D(t *testing.T) {
	side := workload.DefaultSide3D
	for _, curve := range []sfc.Curve{sfc.Morton, sfc.Hilbert} {
		tr := NewSPaC(curve, 3, geom.UniverseBox(3, side))
		pts := workload.GenVarden(8000, 3, side, 3)
		tr.Build(pts)
		validateOrFail(t, tr)
		ref := core.NewBruteForce(3)
		ref.Build(pts)
		if err := core.VerifyQueries(tr, ref,
			workload.GenUniform(15, 3, side, 5), []int{1, 10},
			workload.RangeQueries(8, 3, side, 0.05, 6)); err != nil {
			t.Fatalf("%v: %v", curve, err)
		}
	}
}

func TestHybridAndPlainBuildSameContents(t *testing.T) {
	// SPaC (HybridSort) and CPAM (plain) construction must produce trees
	// with identical contents and identical perfectly-balanced shape.
	pts := workload.GenVarden(15000, 2, testSide, 13)
	a := NewSPaC(sfc.Hilbert, 2, universe())
	b := NewCPAM(sfc.Hilbert, 2, universe())
	a.Build(pts)
	b.Build(pts)
	ea, _ := in2(a).collectOrdered(in2(a).root, nil, true, true)
	eb, _ := in2(b).collectOrdered(in2(b).root, nil, true, true)
	if len(ea) != len(eb) {
		t.Fatalf("sizes differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if cmpEntry(ea[i], eb[i]) != 0 {
			t.Fatalf("entry %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
	if a.Height() != b.Height() {
		t.Fatalf("heights differ: %d vs %d", a.Height(), b.Height())
	}
}

func TestInsertMatchesBruteForce(t *testing.T) {
	for _, tr := range allVariants() {
		pts := workload.GenVarden(20000, 2, testSide, 17)
		ref := core.NewBruteForce(2)
		tr.Build(pts[:5000])
		ref.Build(pts[:5000])
		for lo := 5000; lo < 20000; lo += 3000 {
			hi := lo + 3000
			tr.BatchInsert(pts[lo:hi])
			ref.BatchInsert(pts[lo:hi])
			validateOrFail(t, tr)
		}
		if err := core.VerifyQueries(tr, ref,
			workload.GenUniform(20, 2, testSide, 19), []int{1, 10},
			workload.RangeQueries(10, 2, testSide, 0.02, 23)); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
	}
}

func TestDeleteMatchesBruteForce(t *testing.T) {
	for _, tr := range allVariants() {
		pts := workload.GenUniform(20000, 2, testSide, 29)
		ref := core.NewBruteForce(2)
		tr.Build(pts)
		ref.Build(pts)
		rng := rand.New(rand.NewSource(31))
		for round := 0; round < 3; round++ {
			cur := ref.Points()
			batch := make([]geom.Point, 4000)
			for i := range batch {
				batch[i] = cur[rng.Intn(len(cur))]
			}
			tr.BatchDelete(batch)
			ref.BatchDelete(batch)
			validateOrFail(t, tr)
			if tr.Size() != ref.Size() {
				t.Fatalf("%s round %d: size %d want %d", tr.Name(), round, tr.Size(), ref.Size())
			}
		}
		if err := core.VerifyQueries(tr, ref,
			workload.GenUniform(20, 2, testSide, 37), []int{1, 10},
			workload.RangeQueries(10, 2, testSide, 0.02, 41)); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
	}
}

func TestSkewedInsertKeepsBalance(t *testing.T) {
	// Sweepline batches all land at the right edge of the code space:
	// the join-based rebalancing must hold BB[alpha] (validated) and keep
	// the height logarithmic.
	pts := workload.GenSweepline(40000, 2, testSide, 43)
	tr := NewSPaC(sfc.Hilbert, 2, universe())
	tr.Build(pts[:5000])
	for lo := 5000; lo < 40000; lo += 2500 {
		tr.BatchInsert(pts[lo : lo+2500])
		validateOrFail(t, tr)
	}
	if h := tr.Height(); h > 24 {
		t.Fatalf("height %d after skewed inserts", h)
	}
}

func TestUnsortedLeavesAppearAndQueriesStillWork(t *testing.T) {
	// The partial-order relaxation must actually kick in: after small
	// batch inserts a SPaC tree should carry unsorted leaves, while CPAM
	// never does. Queries must agree with brute force regardless.
	spac := NewSPaC(sfc.Hilbert, 2, universe())
	cpam := NewCPAM(sfc.Hilbert, 2, universe())
	ref := core.NewBruteForce(2)
	pts := workload.GenUniform(30000, 2, testSide, 47)
	spac.Build(pts[:20000])
	cpam.Build(pts[:20000])
	ref.Build(pts[:20000])
	for lo := 20000; lo < 30000; lo += 200 {
		spac.BatchInsert(pts[lo : lo+200])
		cpam.BatchInsert(pts[lo : lo+200])
		ref.BatchInsert(pts[lo : lo+200])
	}
	if _, unsorted := spac.LeafStats(); unsorted == 0 {
		t.Fatal("SPaC tree has no unsorted leaves after small batches — relaxation not exercised")
	}
	if _, unsorted := cpam.LeafStats(); unsorted != 0 {
		t.Fatal("CPAM tree has unsorted leaves")
	}
	validateOrFail(t, spac)
	validateOrFail(t, cpam)
	queries := workload.GenUniform(25, 2, testSide, 53)
	boxes := workload.RangeQueries(10, 2, testSide, 0.01, 59)
	for _, tr := range []*Tree{spac, cpam} {
		if err := core.VerifyQueries(tr, ref, queries, []int{1, 10}, boxes); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	// Duplicate entries straddle pivots; the split-run path must delete
	// exactly the requested number of copies.
	for _, tr := range allVariants() {
		p := geom.Pt2(123, 456)
		pts := make([]geom.Point, 500)
		for i := range pts {
			pts[i] = p
		}
		tr.Build(pts)
		validateOrFail(t, tr)
		if tr.Size() != 500 {
			t.Fatalf("%s: size %d", tr.Name(), tr.Size())
		}
		tr.BatchDelete(pts[:123])
		validateOrFail(t, tr)
		if tr.Size() != 377 {
			t.Fatalf("%s: size %d after deleting 123 copies", tr.Name(), tr.Size())
		}
		if got := tr.RangeCount(geom.BoxOf(p, p)); got != 377 {
			t.Fatalf("%s: RangeCount %d", tr.Name(), got)
		}
		// Deleting more copies than remain empties the point entirely.
		tr.BatchDelete(make500(p))
		if tr.Size() != 0 {
			t.Fatalf("%s: size %d after over-delete", tr.Name(), tr.Size())
		}
	}
}

func make500(p geom.Point) []geom.Point {
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = p
	}
	return pts
}

func TestDuplicatesMixedWithSpread(t *testing.T) {
	tr := NewSPaC(sfc.Morton, 2, universe())
	ref := core.NewBruteForce(2)
	pts := workload.GenUniform(5000, 2, testSide, 61)
	dup := geom.Pt2(7777, 7777)
	for i := 0; i < 300; i++ {
		pts = append(pts, dup)
	}
	tr.Build(pts)
	ref.Build(pts)
	validateOrFail(t, tr)
	// Delete half the duplicates plus a slice of spread points.
	batch := append(make([]geom.Point, 0, 1150), pts[:1000]...)
	for i := 0; i < 150; i++ {
		batch = append(batch, dup)
	}
	tr.BatchDelete(batch)
	ref.BatchDelete(batch)
	validateOrFail(t, tr)
	if err := core.VerifyQueries(tr, ref,
		[]geom.Point{dup, geom.Pt2(0, 0)}, []int{1, 200},
		[]geom.Box{geom.BoxOf(dup, dup), universe()}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeBatchIntoSmallTree(t *testing.T) {
	// Exercises the §C heuristic's expose path: batch much larger than
	// the leaf it lands in.
	tr := NewSPaC(sfc.Hilbert, 2, universe())
	tr.Build(workload.GenUniform(50, 2, testSide, 67))
	big := workload.GenUniform(20000, 2, testSide, 71)
	tr.BatchInsert(big)
	validateOrFail(t, tr)
	if tr.Size() != 20050 {
		t.Fatalf("size %d", tr.Size())
	}
}

func TestFullDeleteEmptiesTree(t *testing.T) {
	for _, tr := range allVariants() {
		pts := workload.GenVarden(5000, 2, testSide, 73)
		tr.Build(pts)
		tr.BatchDelete(pts)
		if tr.Size() != 0 {
			t.Fatalf("%s: size %d after deleting all", tr.Name(), tr.Size())
		}
		validateOrFail(t, tr)
	}
}

func TestRandomizedOperationFuzz(t *testing.T) {
	// Random interleavings with invariant validation every step — the
	// join/rotation machinery's stress test.
	for _, mode := range []Mode{PartialOrder, TotalOrder} {
		opts := core.DefaultOptions(2, universe())
		opts.LeafWrap = 40
		opts.Alpha = 0.2
		tr := New(sfc.Hilbert, mode, opts)
		ref := core.NewBruteForce(2)
		rng := rand.New(rand.NewSource(79))
		pool := workload.GenVarden(30000, 2, testSide, 83)
		used := 0
		for step := 0; step < 40; step++ {
			if rng.Intn(2) == 0 && used < len(pool) {
				n := rng.Intn(1500)
				if used+n > len(pool) {
					n = len(pool) - used
				}
				tr.BatchInsert(pool[used : used+n])
				ref.BatchInsert(pool[used : used+n])
				used += n
			} else if ref.Size() > 0 {
				cur := ref.Points()
				n := rng.Intn(len(cur)/2 + 1)
				batch := make([]geom.Point, n)
				for i := range batch {
					batch[i] = cur[rng.Intn(len(cur))]
				}
				tr.BatchDelete(batch)
				ref.BatchDelete(batch)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("mode %d step %d: %v", mode, step, err)
			}
			if tr.Size() != ref.Size() {
				t.Fatalf("mode %d step %d: size %d want %d", mode, step, tr.Size(), ref.Size())
			}
		}
		if err := core.VerifyQueries(tr, ref,
			workload.GenUniform(15, 2, testSide, 89), []int{1, 10},
			workload.RangeQueries(8, 2, testSide, 0.02, 97)); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
	}
}

func TestSingleEntryOperations(t *testing.T) {
	tr := NewSPaC(sfc.Hilbert, 2, universe())
	p := geom.Pt2(5, 5)
	tr.BatchInsert([]geom.Point{p})
	if tr.Size() != 1 {
		t.Fatal("size after single insert")
	}
	if nn := tr.KNN(geom.Pt2(0, 0), 1, nil); len(nn) != 1 || nn[0] != p {
		t.Fatalf("KNN = %v", nn)
	}
	tr.BatchDelete([]geom.Point{p})
	if tr.Size() != 0 {
		t.Fatal("size after single delete")
	}
}

// in2 returns the 2-D tree behind tr, for the tests that look inside it.
func in2(tr *Tree) *tree[[2]int32] { return tr.body.(*tree[[2]int32]) }
