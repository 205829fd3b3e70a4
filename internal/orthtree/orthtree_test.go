package orthtree

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

const testSide = int64(1 << 20)

func universe() geom.Box { return geom.UniverseBox(2, testSide) }

func newTest2D() *Tree { return NewDefault(2, universe()) }

func validateOrFail(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newTest2D()
	if tr.Size() != 0 {
		t.Fatal("empty size")
	}
	if got := tr.KNN(geom.Pt2(1, 1), 5, nil); len(got) != 0 {
		t.Fatal("KNN on empty tree")
	}
	if tr.RangeCount(universe()) != 0 {
		t.Fatal("RangeCount on empty")
	}
	if got := tr.RangeList(universe(), nil); len(got) != 0 {
		t.Fatal("RangeList on empty")
	}
	tr.BatchDelete([]geom.Point{geom.Pt2(1, 1)}) // no-op, no panic
	validateOrFail(t, tr)
}

func TestBuildSmall(t *testing.T) {
	tr := newTest2D()
	pts := []geom.Point{geom.Pt2(1, 2), geom.Pt2(3, 4), geom.Pt2(5, 6)}
	tr.Build(pts)
	if tr.Size() != 3 {
		t.Fatalf("size %d", tr.Size())
	}
	validateOrFail(t, tr)
	nn := tr.KNN(geom.Pt2(0, 0), 1, nil)
	if len(nn) != 1 || nn[0] != geom.Pt2(1, 2) {
		t.Fatalf("KNN = %v", nn)
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	pts := workload.GenUniform(5000, 2, testSide, 1)
	snapshot := append([]geom.Point(nil), pts...)
	tr := newTest2D()
	tr.Build(pts)
	for i := range pts {
		if pts[i] != snapshot[i] {
			t.Fatal("Build reordered the caller's slice")
		}
	}
}

func TestBuildMatchesBruteForce(t *testing.T) {
	for _, dist := range []workload.Dist{workload.Uniform, workload.Sweepline, workload.Varden} {
		for _, n := range []int{0, 1, 31, 32, 33, 1000, 20000} {
			pts := workload.Generate(dist, n, 2, testSide, 7)
			tr := newTest2D()
			tr.Build(pts)
			validateOrFail(t, tr)
			ref := core.NewBruteForce(2)
			ref.Build(pts)
			queries := workload.GenUniform(30, 2, testSide, 9)
			boxes := workload.RangeQueries(15, 2, testSide, 0.01, 11)
			boxes = append(boxes, universe(), geom.BoxOf(geom.Pt2(5, 5), geom.Pt2(5, 5)))
			if err := core.VerifyQueries(tr, ref, queries, []int{1, 3, 10}, boxes); err != nil {
				t.Fatalf("%s n=%d: %v", dist, n, err)
			}
		}
	}
}

func TestBuild3D(t *testing.T) {
	u := geom.UniverseBox(3, testSide)
	tr := NewDefault(3, u)
	pts := workload.GenVarden(8000, 3, testSide, 3)
	tr.Build(pts)
	validateOrFail(t, tr)
	ref := core.NewBruteForce(3)
	ref.Build(pts)
	queries := workload.GenUniform(20, 3, testSide, 5)
	boxes := workload.RangeQueries(10, 3, testSide, 0.05, 6)
	if err := core.VerifyQueries(tr, ref, queries, []int{1, 10}, boxes); err != nil {
		t.Fatal(err)
	}
}

func TestInsertMatchesBruteForce(t *testing.T) {
	pts := workload.GenVarden(20000, 2, testSide, 13)
	tr := newTest2D()
	ref := core.NewBruteForce(2)
	tr.Build(pts[:5000])
	ref.Build(pts[:5000])
	for lo := 5000; lo < 20000; lo += 3000 {
		hi := lo + 3000
		tr.BatchInsert(pts[lo:hi])
		ref.BatchInsert(pts[lo:hi])
		validateOrFail(t, tr)
	}
	queries := workload.GenUniform(30, 2, testSide, 17)
	boxes := workload.RangeQueries(10, 2, testSide, 0.02, 19)
	if err := core.VerifyQueries(tr, ref, queries, []int{1, 10}, boxes); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMatchesBruteForce(t *testing.T) {
	pts := workload.GenUniform(20000, 2, testSide, 23)
	tr := newTest2D()
	ref := core.NewBruteForce(2)
	tr.Build(pts)
	ref.Build(pts)
	rng := rand.New(rand.NewSource(29))
	perm := rng.Perm(len(pts))
	for round := 0; round < 4; round++ {
		batch := make([]geom.Point, 0, 4000)
		for _, i := range perm[round*4000 : (round+1)*4000] {
			batch = append(batch, pts[i])
		}
		tr.BatchDelete(batch)
		ref.BatchDelete(batch)
		validateOrFail(t, tr)
		if tr.Size() != ref.Size() {
			t.Fatalf("round %d: size %d, want %d", round, tr.Size(), ref.Size())
		}
	}
	queries := workload.GenUniform(30, 2, testSide, 31)
	boxes := workload.RangeQueries(10, 2, testSide, 0.02, 37)
	if err := core.VerifyQueries(tr, ref, queries, []int{1, 10}, boxes); err != nil {
		t.Fatal(err)
	}
	// Delete everything.
	tr.BatchDelete(ref.Points())
	if tr.Size() != 0 {
		t.Fatalf("size after full delete: %d", tr.Size())
	}
	validateOrFail(t, tr)
}

func TestHistoryIndependenceInsert(t *testing.T) {
	// build(P); insert(Q) must equal build(P ∪ Q) structurally — the
	// property the paper credits for stable query performance under
	// updates (§5.1.3).
	all := workload.GenVarden(12000, 2, testSide, 41)
	for _, cut := range []int{0, 1, 6000, 11999} {
		a := newTest2D()
		a.Build(all[:cut])
		a.BatchInsert(all[cut:])
		b := newTest2D()
		b.Build(all)
		if !StructuralEqual(a, b) {
			t.Fatalf("cut=%d: incremental tree differs from scratch build", cut)
		}
	}
	// Many small batches.
	c := newTest2D()
	for lo := 0; lo < len(all); lo += 500 {
		hi := lo + 500
		if hi > len(all) {
			hi = len(all)
		}
		c.BatchInsert(all[lo:hi])
		validateOrFail(t, c)
	}
	b := newTest2D()
	b.Build(all)
	if !StructuralEqual(c, b) {
		t.Fatal("500-point batches diverge from scratch build")
	}
}

func TestHistoryIndependenceDelete(t *testing.T) {
	all := workload.GenUniform(10000, 2, testSide, 43)
	tr := newTest2D()
	tr.Build(all)
	tr.BatchDelete(all[7000:])
	want := newTest2D()
	want.Build(all[:7000])
	if !StructuralEqual(tr, want) {
		t.Fatal("delete-built tree differs from scratch build")
	}
}

func TestDuplicatePoints(t *testing.T) {
	// A degenerate region (all duplicates) must become one oversized
	// leaf, not an infinite recursion.
	p := geom.Pt2(77, 88)
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = p
	}
	tr := newTest2D()
	tr.Build(pts)
	validateOrFail(t, tr)
	if tr.Size() != 500 {
		t.Fatalf("size %d", tr.Size())
	}
	if got := tr.RangeCount(geom.BoxOf(p, p)); got != 500 {
		t.Fatalf("RangeCount at duplicate = %d", got)
	}
	// Multiset delete removes exactly the requested count.
	tr.BatchDelete(pts[:123])
	if tr.Size() != 377 {
		t.Fatalf("size after partial delete %d", tr.Size())
	}
	validateOrFail(t, tr)
	// kNN on duplicates returns k copies.
	nn := tr.KNN(p, 10, nil)
	if len(nn) != 10 {
		t.Fatalf("kNN over duplicates returned %d", len(nn))
	}
	for _, q := range nn {
		if q != p {
			t.Fatal("kNN returned wrong duplicate")
		}
	}
}

func TestMixedDuplicatesAndSpread(t *testing.T) {
	pts := workload.GenUniform(5000, 2, testSide, 47)
	dup := geom.Pt2(1000, 1000)
	for i := 0; i < 200; i++ {
		pts = append(pts, dup)
	}
	tr := newTest2D()
	tr.Build(pts)
	validateOrFail(t, tr)
	ref := core.NewBruteForce(2)
	ref.Build(pts)
	if err := core.VerifyQueries(tr, ref,
		[]geom.Point{dup, geom.Pt2(0, 0)}, []int{1, 50, 250},
		[]geom.Box{geom.BoxOf(dup, dup)}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNonexistent(t *testing.T) {
	pts := workload.GenUniform(1000, 2, testSide, 53)
	tr := newTest2D()
	tr.Build(pts)
	tr.BatchDelete(workload.GenUniform(500, 2, testSide, 59)) // almost surely disjoint
	if tr.Size() < 990 {
		t.Fatalf("deleting nonexistent points removed too much: %d", tr.Size())
	}
	validateOrFail(t, tr)
}

func TestInsertIntoLeafRegion(t *testing.T) {
	// Insert a batch that all lands in one tiny region, forcing deep
	// subdivision under an existing shallow leaf.
	tr := newTest2D()
	tr.Build(workload.GenUniform(100, 2, testSide, 61))
	cluster := make([]geom.Point, 2000)
	rng := rand.New(rand.NewSource(67))
	for i := range cluster {
		cluster[i] = geom.Pt2(500+rng.Int63n(32), 500+rng.Int63n(32))
	}
	tr.BatchInsert(cluster)
	validateOrFail(t, tr)
	if tr.Size() != 2100 {
		t.Fatalf("size %d", tr.Size())
	}
	got := tr.RangeCount(geom.BoxOf(geom.Pt2(500, 500), geom.Pt2(531, 531)))
	if got < 2000 {
		t.Fatalf("cluster count %d", got)
	}
}

func TestUniversePanics(t *testing.T) {
	tr := newTest2D()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-universe point")
		}
	}()
	tr.Build([]geom.Point{geom.Pt2(-1, 5)})
}

func TestKNNMoreThanSize(t *testing.T) {
	tr := newTest2D()
	tr.Build(workload.GenUniform(5, 2, testSide, 71))
	nn := tr.KNN(geom.Pt2(0, 0), 50, nil)
	if len(nn) != 5 {
		t.Fatalf("kNN k>n returned %d", len(nn))
	}
}

func TestHeightLogarithmicOnUniform(t *testing.T) {
	tr := newTest2D()
	tr.Build(workload.GenUniform(100000, 2, testSide, 73))
	// Uniform data in a 2^20 universe: height is O(log4 n) + leaf; far
	// below the 20-level degenerate bound.
	if h := tr.Height(); h > 14 {
		t.Fatalf("height %d too large for uniform data", h)
	}
	st := tr.TreeStats()
	if st.MaxLeaf > tr.Options().LeafWrap {
		t.Fatalf("leaf of %d exceeds wrap", st.MaxLeaf)
	}
}

func TestStatsAndName(t *testing.T) {
	tr := newTest2D()
	if tr.Name() != "P-Orth" || tr.Dims() != 2 {
		t.Fatal("identity")
	}
	tr.Build(workload.GenUniform(1000, 2, testSide, 79))
	st := tr.TreeStats()
	if st.Leaves == 0 || st.Nodes < st.Leaves || st.Height < 2 {
		t.Fatalf("implausible stats %+v", st)
	}
}

func TestRandomizedOperationSequence(t *testing.T) {
	// Fuzz-style: random interleavings of build/insert/delete, validated
	// against brute force and the structural invariants at every step.
	rng := rand.New(rand.NewSource(83))
	tr := newTest2D()
	ref := core.NewBruteForce(2)
	pool := workload.GenVarden(30000, 2, testSide, 89)
	live := 0
	for step := 0; step < 30; step++ {
		switch rng.Intn(3) {
		case 0: // insert
			n := rng.Intn(2000)
			batch := pool[live : live+n]
			live += n
			tr.BatchInsert(batch)
			ref.BatchInsert(batch)
		case 1: // delete a random sample of live points
			cur := ref.Points()
			if len(cur) == 0 {
				continue
			}
			n := rng.Intn(len(cur)/2 + 1)
			batch := make([]geom.Point, n)
			for i := range batch {
				batch[i] = cur[rng.Intn(len(cur))] // may repeat: multiset delete
			}
			tr.BatchDelete(batch)
			ref.BatchDelete(batch)
		case 2: // point queries only
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if tr.Size() != ref.Size() {
			t.Fatalf("step %d: size %d, want %d", step, tr.Size(), ref.Size())
		}
	}
	queries := workload.GenUniform(20, 2, testSide, 97)
	boxes := workload.RangeQueries(10, 2, testSide, 0.01, 101)
	if err := core.VerifyQueries(tr, ref, queries, []int{1, 10}, boxes); err != nil {
		t.Fatal(err)
	}
}

// in2 returns the 2-D tree behind tr, for the tests that look inside it.
func in2(tr *Tree) *tree[[2]int32] { return tr.body.(*tree[[2]int32]) }

// nodeCount returns the number of nodes of tr, in either dimensionality.
func nodeCount(tr *Tree) int {
	switch in := tr.body.(type) {
	case *tree[[2]int32]:
		return countNodes(in.root)
	case *tree[[3]int32]:
		return countNodes(in.root)
	}
	return 0
}
