package spactree

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/orthtree"
	"repro/internal/sfc"
	"repro/internal/workload"
)

// countNodes returns the number of nodes under nd.
func countNodes[S geom.Packed](nd *node[S]) int {
	if nd == nil {
		return 0
	}
	if nd.isLeaf() {
		return 1
	}
	return 1 + countNodes(nd.left) + countNodes(nd.right)
}

// churn returns a 2-D batch pair against live: del samples it (with
// repeats and a few misses), ins is fresh points plus runs of one repeated
// point, the input that drives splitRun and join2.
func churn(rng *rand.Rand, live []geom.Point, n int) (ins, del []geom.Point) {
	return churnIn(rng, 2, live, n)
}

// churnIn is churn in dims dimensions.
func churnIn(rng *rand.Rand, dims int, live []geom.Point, n int) (ins, del []geom.Point) {
	fresh := func() (p geom.Point) {
		for d := 0; d < dims; d++ {
			p[d] = rng.Int63n(testSide)
		}
		return p
	}
	for i := 0; i < n; i++ {
		ins = append(ins, fresh())
		if len(live) > 0 && rng.Intn(10) != 0 {
			del = append(del, live[rng.Intn(len(live))])
		} else {
			del = append(del, fresh())
		}
	}
	if len(live) > 0 {
		dup := live[rng.Intn(len(live))]
		for i := 0; i < n/4+1; i++ {
			ins = append(ins, dup)
		}
	}
	return ins, del
}

func verifyAgainst(t *testing.T, what string, tr *Tree, ref *core.BruteForce) {
	t.Helper()
	validateOrFail(t, tr)
	if tr.Size() != ref.Size() {
		t.Fatalf("%s %s: size %d, oracle %d", tr.Name(), what, tr.Size(), ref.Size())
	}
	if err := core.VerifyQueries(tr, ref,
		workload.GenUniform(8, 2, testSide, 5), []int{1, 10},
		workload.RangeQueries(6, 2, testSide, 0.02, 6)); err != nil {
		t.Fatalf("%s %s: %v", tr.Name(), what, err)
	}
}

// TestAdoptIsolatesTheFork: a pinned view is the tree's contents, one
// structure with it; whatever the tree goes on to do, the view keeps
// answering from the contents it had, and both stay valid. A tree that
// never pinned copies nothing.
func TestAdoptIsolatesTheFork(t *testing.T) {
	for _, tr := range allVariants() {
		rng := rand.New(rand.NewSource(31))
		pts := workload.GenVarden(20000, 2, testSide, 3)
		tr.Build(pts)
		live := core.NewBruteForce(2)
		live.Build(pts)
		ins, del := churn(rng, live.Points(), 300)
		tr.BatchDiff(ins, del)
		live.BatchDiff(ins, del)
		if nodes, bytes := tr.Copied(); nodes != 0 || bytes != 0 {
			t.Fatalf("%s: a tree that never pinned copied %d nodes, %d bytes", tr.Name(), nodes, bytes)
		}

		view := tr.Pin().(*Tree)
		if !tr.Current(view) || in2(view).root != in2(tr).root {
			t.Fatalf("%s: the pinned view is not the tree's contents", tr.Name())
		}
		frozen := core.NewBruteForce(2)
		frozen.Build(live.Points())
		total := countNodes(in2(tr).root)

		for round := 0; round < 12; round++ {
			ins, del := churn(rng, live.Points(), 150)
			tr.BatchDiff(ins, del)
			live.BatchDiff(ins, del)
			verifyAgainst(t, "writer", tr, live)
			verifyAgainst(t, "view", view, frozen)
		}
		if tr.Current(view) {
			t.Fatalf("%s: the view is still current after updates", tr.Name())
		}
		// CPAM leaves are rebuilt on every touch, shared or not: only its
		// interior nodes are ever copied.
		nodes, bytes := tr.Copied()
		if nodes == 0 || (bytes == 0) != (in2(tr).mode == TotalOrder) {
			t.Fatalf("%s: updates of a shared tree copied %d nodes, %d bytes", tr.Name(), nodes, bytes)
		}
		// 12 rounds of ~340 points into ~20000: the first touches a few
		// hundred paths, the later ones find most of them owned already.
		if int(nodes) > total {
			t.Fatalf("%s: copied %d nodes of a %d-node tree", tr.Name(), nodes, total)
		}

		// Emptying the tree does not empty the view.
		tr.BatchDelete(live.Points())
		if tr.Size() != 0 {
			t.Fatalf("%s: %d points left after deleting all", tr.Name(), tr.Size())
		}
		verifyAgainst(t, "view after the writer emptied", view, frozen)
		tr.Unpin(view)
	}
}

// TestAdoptRefusesStrangers: Unpin refuses, and Current denies, an index
// the tree did not pin — another tree, a view of another tree of the same
// family in either dimensionality or of the other family, a view already
// unpinned — and a refusal changes nothing.
func TestAdoptRefusesStrangers(t *testing.T) {
	tr := NewSPaC(sfc.Hilbert, 2, universe())
	pts := workload.GenUniform(500, 2, testSide, 1)
	tr.Build(pts)
	other := NewSPaC(sfc.Hilbert, 2, universe())
	other.Build(workload.GenUniform(300, 2, testSide, 2))
	view := tr.Pin()
	unpinned := tr.Pin() // its record waits for view's: Pin does not reuse it
	tr.Unpin(unpinned)
	for _, c := range []struct {
		name string
		idx  core.Index
	}{
		{"another tree", other},
		{"a view of another tree", other.Pin()},
		{"a 3-D view of the same family", NewSPaC(sfc.Hilbert, 3, geom.UniverseBox(3, testSide)).Pin()},
		{"a P-Orth view", orthtree.NewDefault(2, universe()).Pin()},
		{"an unpinned view", unpinned},
		{"the tree itself", tr},
		{"a brute-force index", core.NewBruteForce(2)},
	} {
		if tr.Current(c.idx) {
			t.Fatalf("%s is current", c.name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("unpinned %s", c.name)
				}
			}()
			tr.Unpin(c.idx)
		}()
		if tr.Size() != len(pts) || !tr.Current(view) {
			t.Fatalf("refusing %s changed the tree", c.name)
		}
	}
	validateOrFail(t, tr)
}

// TestViewRefusesUpdates: an update or a Pin of a pinned view panics and
// leaves it as it was.
func TestViewRefusesUpdates(t *testing.T) {
	tr := NewSPaC(sfc.Hilbert, 2, universe())
	pts := workload.GenUniform(500, 2, testSide, 1)
	tr.Build(pts)
	view := tr.Pin().(*Tree)
	for name, update := range map[string]func(){
		"BatchDiff":   func() { view.BatchDiff(pts[:3], pts[3:6]) },
		"Build":       func() { view.Build(pts[:3]) },
		"BatchInsert": func() { view.BatchInsert(pts[:3]) },
		"BatchDelete": func() { view.BatchDelete(pts[:3]) },
		"Pin":         func() { view.Pin() },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "read-only") {
					t.Fatalf("%s of a view: panic %q, want one that names it read-only", name, msg)
				}
			}()
			update()
		}()
		if view.Size() != len(pts) || !tr.Current(view) {
			t.Fatalf("a refused %s changed the view", name)
		}
	}
	validateOrFail(t, view)
}

// TestPinZeroAllocWarm: the version cell's Pin and Unpin, a new view
// pinned before the old one is unpinned, allocate nothing once warm.
func TestPinZeroAllocWarm(t *testing.T) {
	for _, tr := range allVariants() {
		tr.Build(workload.GenUniform(500, 2, testSide, 1))
		cur := tr.Pin()
		cycle := func() {
			next := tr.Pin()
			tr.Unpin(cur)
			cur = next
		}
		cycle()
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Fatalf("%s: a warm Pin and Unpin allocate %.1f times, want 0", tr.Name(), allocs)
		}
	}
}

// TestAdoptedSideReadsWhileWriterApplies is the -race half of fork
// isolation: readers query a pinned view with no lock at all while the
// writer applies 1 % batches — and pins a newer view every few batches,
// unpinning the one before, so the writer keeps losing ownership of what
// it copied while the readers' older view stays pinned. The only memory
// both touch is what neither writes.
func TestAdoptedSideReadsWhileWriterApplies(t *testing.T) {
	const n = 40000
	tr := NewSPaC(sfc.Hilbert, 2, universe())
	pts := workload.GenVarden(n, 2, testSide, 17)
	tr.Build(pts)
	view := tr.Pin().(*Tree)

	queries := workload.GenUniform(16, 2, testSide, 19)
	boxes := workload.RangeQueries(16, 2, testSide, 0.01, 23)
	wantNN := make([][]geom.Point, len(queries))
	wantCount := make([]int, len(boxes))
	for i, q := range queries {
		wantNN[i] = view.KNN(q, 5, nil)
	}
	for i, b := range boxes {
		wantCount[i] = view.RangeCount(b)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var nn []geom.Point
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j := i % len(queries)
				nn = view.KNN(queries[j], 5, nn[:0])
				for k := range nn {
					if geom.Dist2(nn[k], queries[j], 2) != geom.Dist2(wantNN[j][k], queries[j], 2) {
						t.Errorf("reader: KNN %d changed under the writer", j)
						return
					}
				}
				if got := view.RangeCount(boxes[j]); got != wantCount[j] {
					t.Errorf("reader: RangeCount %d = %d, was %d", j, got, wantCount[j])
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(29))
	live := append([]geom.Point(nil), pts...)
	var third core.Index
	for round := 0; round < 30; round++ {
		b := n / 100
		ins := make([]geom.Point, b)
		del := make([]geom.Point, b)
		for i, j := range rng.Perm(n)[:b] {
			ins[i] = geom.Pt2(rng.Int63n(testSide), rng.Int63n(testSide))
			del[i], live[j] = live[j], ins[i]
		}
		tr.BatchDiff(ins, del)
		if round%4 == 3 {
			next := tr.Pin()
			if third != nil {
				tr.Unpin(third)
			}
			third = next
		}
	}
	close(stop)
	wg.Wait()
	validateOrFail(t, tr)
	validateOrFail(t, view)
	validateOrFail(t, third.(*Tree))
	if tr.Size() != n || view.Size() != n {
		t.Fatalf("sizes %d / %d after even exchanges, want %d", tr.Size(), view.Size(), n)
	}
}

// TestCopiedCountsLeafPoints: Copied counts the leaf element actually
// copied, a stored point — 8 bytes in 2-D, 12 in 3-D. A SPaC tree of one
// leaf of m points, shared with a pinned view, copies that leaf once when
// a batch is absorbed into it, and once when a delete removes a point from
// it; a CPAM leaf is rebuilt on every touch and never copied.
func TestCopiedCountsLeafPoints(t *testing.T) {
	const m = 25
	for _, dims := range []int{2, 3} {
		u := geom.UniverseBox(dims, testSide)
		pts := workload.GenUniform(m+5, dims, testSide, 7)
		width := uint64(4 * dims)
		for _, mk := range []func() *Tree{
			func() *Tree { return NewSPaC(sfc.Hilbert, dims, u) },
			func() *Tree { return NewCPAM(sfc.Hilbert, dims, u) },
		} {
			for _, side := range []struct {
				update func(*Tree)
				size   int
			}{
				{func(tr *Tree) { tr.BatchInsert(pts[m:]) }, m + 5},
				{func(tr *Tree) { tr.BatchDelete(pts[:1]) }, m - 1},
			} {
				tr := mk()
				tr.Build(pts[:m])
				if tr.Height() != 1 {
					t.Fatalf("%s %dD: %d points built a tree of height %d, want one leaf", tr.Name(), dims, m, tr.Height())
				}
				view := tr.Pin().(*Tree)
				side.update(tr)
				want := width * m
				if tr.Name() == "CPAM-H" {
					want = 0
				}
				nodes, bytes := tr.Copied()
				if bytes != want || nodes != min(want, 1) {
					t.Errorf("%s %dD: copying a shared %d-point leaf counted %d nodes, %d bytes; want %d, %d",
						tr.Name(), dims, m, nodes, bytes, min(want, 1), want)
				}
				validateOrFail(t, tr)
				validateOrFail(t, view)
				if tr.Size() != side.size || view.Size() != m {
					t.Fatalf("%s %dD: sizes %d and %d after the update", tr.Name(), dims, tr.Size(), view.Size())
				}
			}
		}
	}
}

// shapeOf appends the structure under nd in preorder: per interior node
// its size, box and pivot, per leaf its size, box and points as a sorted
// multiset — everything but the order inside a leaf and the stamps.
func shapeOf[S geom.Packed](nd *node[S], out []string) []string {
	if nd == nil {
		return append(out, "nil")
	}
	if nd.isLeaf() {
		pts := slices.Clone(nd.points())
		slices.SortFunc(pts, geom.ComparePacked[S])
		return append(out, fmt.Sprint("leaf ", nd.size, nd.bbox, pts))
	}
	out = append(out, fmt.Sprint("node ", nd.size, nd.bbox, nd.pivot))
	out = shapeOf(nd.left, out)
	return shapeOf(nd.right, out)
}

// shape is shapeOf the whole tree, in either dimensionality.
func shape(tr *Tree) []string {
	switch in := tr.body.(type) {
	case *tree[[2]int32]:
		return shapeOf(in.root, nil)
	case *tree[[3]int32]:
		return shapeOf(in.root, nil)
	}
	panic("unknown tree")
}

// TestOwnedAndSharedUpdatesAgree: updates that write the nodes they own
// in place and recycle the nodes and blocks they displace build the same
// tree as updates that find every node shared and copy what they touch. A
// raw tree and a twin that pins a view before every batch, unpinning the
// one before, take the same batches — from a few points to past
// seqCutoff, where forked branches draw from one recycler, with runs of a
// repeated point — and must match node by node after each. The view,
// holding the tree of before the batch, must not have changed: nothing it
// reaches was written or recycled.
func TestOwnedAndSharedUpdatesAgree(t *testing.T) {
	for _, dims := range []int{2, 3} {
		u := geom.UniverseBox(dims, testSide)
		for _, mk := range []func() *Tree{
			func() *Tree { return NewSPaC(sfc.Hilbert, dims, u) },
			func() *Tree { return NewSPaC(sfc.Morton, dims, u) },
			func() *Tree { return NewCPAM(sfc.Hilbert, dims, u) },
		} {
			raw, twin := mk(), mk()
			name := fmt.Sprintf("%s %dD", raw.Name(), dims)
			rng := rand.New(rand.NewSource(int64(40 + dims)))
			pts := workload.GenVarden(12000, dims, testSide, 5)
			raw.Build(pts)
			twin.Build(pts)
			live := core.NewBruteForce(dims)
			live.Build(pts)
			var replica *Tree
			for round, n := range []int{30, 300, 3000, 60, 2500, 10, 600, 4000, 200, 5000, 1} {
				ins, del := churnIn(rng, dims, live.Points(), n)
				apply := func(idx core.Index) {
					switch round % 3 {
					case 0:
						idx.BatchDiff(ins, del)
					case 1:
						idx.BatchInsert(ins)
					default:
						idx.BatchDelete(del)
					}
				}
				if replica != nil {
					twin.Unpin(replica)
				}
				replica = twin.Pin().(*Tree)
				before := shape(replica)
				apply(raw)
				apply(twin)
				apply(live)
				validateOrFail(t, raw)
				validateOrFail(t, twin)
				validateOrFail(t, replica)
				if raw.Size() != live.Size() {
					t.Fatalf("%s round %d: size %d, oracle %d", name, round, raw.Size(), live.Size())
				}
				if !slices.Equal(shape(raw), shape(twin)) {
					t.Fatalf("%s round %d (%d points): the raw tree and the twin differ", name, round, n)
				}
				if !slices.Equal(shape(replica), before) {
					t.Fatalf("%s round %d (%d points): the twin's update changed the tree its view holds", name, round, n)
				}
			}
		}
	}
}

// TestCopiedCountsSmallInteriorNodes: a shared interior node whose
// subtree holds more than φ points but at most 2φ is copied on first touch
// and counted like a larger one. Built from 2·30+1 points at φ = 40, a
// tree is one interior node over two 30-point leaves; with a view pinned,
// one point absorbed into a leaf copies the root too. A SPaC tree copies the
// leaf's 30 points and the root, a CPAM tree rebuilds the leaf and copies
// the root.
func TestCopiedCountsSmallInteriorNodes(t *testing.T) {
	for _, dims := range []int{2, 3} {
		u := geom.UniverseBox(dims, testSide)
		pts := workload.GenUniform(62, dims, testSide, 9)
		width := uint64(4 * dims)
		for _, tr := range []*Tree{NewSPaC(sfc.Hilbert, dims, u), NewCPAM(sfc.Hilbert, dims, u)} {
			tr.Build(pts[:61])
			if tr.Height() != 2 {
				t.Fatalf("%s %dD: 61 points built a tree of height %d, want a root over two leaves", tr.Name(), dims, tr.Height())
			}
			shadow := tr.Pin().(*Tree)
			tr.BatchInsert(pts[61:])
			nodes, bytes := tr.Copied()
			wantNodes, wantBytes := uint64(2), 30*width
			if tr.Name() == "CPAM-H" {
				wantNodes, wantBytes = 1, 0
			}
			if nodes != wantNodes || bytes != wantBytes {
				t.Errorf("%s %dD: an insert below a shared 61-point root counted %d nodes, %d bytes; want %d, %d",
					tr.Name(), dims, nodes, bytes, wantNodes, wantBytes)
			}
			validateOrFail(t, tr)
			validateOrFail(t, shadow)
			if tr.Current(shadow) || shadow.Size() != 61 || tr.Size() != 62 {
				t.Fatalf("%s %dD: sizes %d and %d after the insert", tr.Name(), dims, tr.Size(), shadow.Size())
			}
		}
	}
}
