package rtree

import (
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

const testSide = int64(1 << 20)

func validateOrFail(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(2)
	if tr.Size() != 0 || len(tr.KNN(geom.Pt2(0, 0), 3, nil)) != 0 || tr.RangeCount(geom.UniverseBox(2, 10)) != 0 {
		t.Fatal("empty tree misbehaves")
	}
	tr.BatchDelete([]geom.Point{geom.Pt2(1, 1)})
	validateOrFail(t, tr)
}

func TestInsertMatchesBruteForce(t *testing.T) {
	for _, dist := range []workload.Dist{workload.Uniform, workload.Varden} {
		pts := workload.Generate(dist, 5000, 2, testSide, 7)
		tr := New(2)
		tr.Build(pts)
		validateOrFail(t, tr)
		ref := core.NewBruteForce(2)
		ref.Build(pts)
		queries := workload.GenUniform(25, 2, testSide, 9)
		boxes := workload.RangeQueries(10, 2, testSide, 0.01, 11)
		if err := core.VerifyQueries(tr, ref, queries, []int{1, 3, 10}, boxes); err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
	}
}

func Test3D(t *testing.T) {
	pts := workload.GenVarden(3000, 3, testSide, 3)
	tr := New(3)
	tr.Build(pts)
	validateOrFail(t, tr)
	ref := core.NewBruteForce(3)
	ref.Build(pts)
	if err := core.VerifyQueries(tr, ref,
		workload.GenUniform(15, 3, testSide, 5), []int{1, 10},
		workload.RangeQueries(8, 3, testSide, 0.05, 6)); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMatchesBruteForce(t *testing.T) {
	pts := workload.GenUniform(4000, 2, testSide, 13)
	tr := New(2)
	tr.Build(pts)
	ref := core.NewBruteForce(2)
	ref.Build(pts)
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 5; round++ {
		cur := ref.Points()
		batch := make([]geom.Point, 600)
		for i := range batch {
			batch[i] = cur[rng.Intn(len(cur))]
		}
		tr.BatchDelete(batch)
		ref.BatchDelete(batch)
		validateOrFail(t, tr)
		if tr.Size() != ref.Size() {
			t.Fatalf("round %d: size %d want %d", round, tr.Size(), ref.Size())
		}
	}
	if err := core.VerifyQueries(tr, ref,
		workload.GenUniform(20, 2, testSide, 19), []int{1, 10},
		workload.RangeQueries(8, 2, testSide, 0.02, 23)); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMissingPoint(t *testing.T) {
	tr := New(2)
	tr.Build(workload.GenUniform(100, 2, testSide, 29))
	if tr.delete1(geom.Pt2(-5, -5)) {
		t.Fatal("deleted a point that was never inserted")
	}
	if tr.Size() != 100 {
		t.Fatal("size changed")
	}
}

func TestDuplicates(t *testing.T) {
	p := geom.Pt2(777, 777)
	tr := New(2)
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = p
	}
	tr.Build(pts)
	validateOrFail(t, tr)
	if tr.Size() != 200 {
		t.Fatalf("size %d", tr.Size())
	}
	tr.BatchDelete(pts[:50])
	if tr.Size() != 150 {
		t.Fatalf("size %d after delete", tr.Size())
	}
	validateOrFail(t, tr)
	nn := tr.KNN(geom.Pt2(0, 0), 3, nil)
	if len(nn) != 3 || nn[0] != p {
		t.Fatalf("kNN = %v", nn)
	}
}

func TestFullDeleteEmpties(t *testing.T) {
	pts := workload.GenUniform(1000, 2, testSide, 31)
	tr := New(2)
	tr.Build(pts)
	tr.BatchDelete(pts)
	if tr.Size() != 0 || tr.root != nil {
		t.Fatalf("tree not empty after deleting all: size %d", tr.Size())
	}
}

func TestInterleavedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tr := New(2)
	ref := core.NewBruteForce(2)
	pool := workload.GenVarden(8000, 2, testSide, 41)
	used := 0
	for step := 0; step < 20; step++ {
		if rng.Intn(2) == 0 && used < len(pool) {
			n := rng.Intn(500)
			if used+n > len(pool) {
				n = len(pool) - used
			}
			tr.BatchInsert(pool[used : used+n])
			ref.BatchInsert(pool[used : used+n])
			used += n
		} else if ref.Size() > 0 {
			cur := ref.Points()
			n := rng.Intn(len(cur)/3 + 1)
			batch := make([]geom.Point, n)
			for i := range batch {
				batch[i] = cur[rng.Intn(len(cur))]
			}
			tr.BatchDelete(batch)
			ref.BatchDelete(batch)
		}
		validateOrFail(t, tr)
		if tr.Size() != ref.Size() {
			t.Fatalf("step %d: size %d want %d", step, tr.Size(), ref.Size())
		}
	}
	if err := core.VerifyQueries(tr, ref,
		workload.GenUniform(15, 2, testSide, 43), []int{1, 5},
		workload.RangeQueries(8, 2, testSide, 0.02, 47)); err != nil {
		t.Fatal(err)
	}
}

// queriedAndDropped builds a tree, runs KNN at small and large k over it
// and returns weak pointers to every node; the tree itself is unreachable
// once it returns.
func queriedAndDropped() []weak.Pointer[rnode] {
	tr := New(2)
	tr.Build(workload.GenVarden(20000, 2, testSide, 41))
	var out []geom.Point
	for _, q := range workload.GenUniform(8, 2, testSide, 43) {
		for _, k := range []int{1, 20, 1000, tr.Size()} {
			out = tr.KNN(q, k, out[:0])
		}
	}
	var nodes []weak.Pointer[rnode]
	var walk func(*rnode)
	walk = func(nd *rnode) {
		nodes = append(nodes, weak.Make(nd))
		for _, c := range nd.kids {
			walk(c)
		}
	}
	walk(tr.root)
	return nodes
}

// TestKNNPinsNoDroppedTree: the pooled KNN queue keeps no node of a tree
// nobody holds any more. One collection, not several: a sync.Pool keeps
// what it held for one cycle in its victim cache, which is exactly where
// a queue that was not cleared would pin the tree.
func TestKNNPinsNoDroppedTree(t *testing.T) {
	nodes := queriedAndDropped()
	runtime.GC()
	pinned := 0
	for _, w := range nodes {
		if w.Value() != nil {
			pinned++
		}
	}
	if pinned > 0 {
		t.Fatalf("%d of %d nodes of a dropped tree still reachable", pinned, len(nodes))
	}
}
