package orthtree

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// countNodes returns the number of nodes under nd.
func countNodes[S geom.Packed](nd *node[S]) int {
	if nd == nil {
		return 0
	}
	n := 1
	for _, c := range nd.kids {
		n += countNodes(c)
	}
	return n
}

// churn returns a batch pair against live: del samples it (with repeats
// and a few misses), ins is fresh points plus a run of one repeated point.
func churn(rng *rand.Rand, dims int, live []geom.Point, n int) (ins, del []geom.Point) {
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

// cluster returns n distinct points in a small box at q: enough of them
// overflow the leaf that holds q.
func cluster(q geom.Point, dims, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = q
		pts[i][0] = min(q[0]+int64(i), testSide)
		pts[i][1] = min(q[1]+int64(i%7), testSide)
	}
	return pts
}

// verifyAgainst checks tr's invariants, its answers against ref, and that
// its shape is the one a scratch build of ref's points has: sharing must
// not cost the canonical form.
func verifyAgainst(t *testing.T, what string, tr *Tree, ref *core.BruteForce) {
	t.Helper()
	validateOrFail(t, tr)
	if tr.Size() != ref.Size() {
		t.Fatalf("%s: size %d, oracle %d", what, tr.Size(), ref.Size())
	}
	dims := tr.Dims()
	if err := core.VerifyQueries(tr, ref,
		workload.GenUniform(8, dims, testSide, 5), []int{1, 10},
		workload.RangeQueries(6, dims, testSide, 0.02, 6)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	scratch := New(tr.Options())
	scratch.Build(ref.Points())
	if !StructuralEqual(tr, scratch) {
		t.Fatalf("%s: the tree differs from a scratch build of its points", what)
	}
}

// TestAdoptIsolatesTheFork: a pinned view is the tree's contents, one
// structure with it; whatever the tree goes on to do — batches below and
// above smallBatch (the depth-1 split and the skeleton), leaf absorbs and
// leaf splits, deletes that collapse subtrees into leaves or empty them —
// the view keeps answering from the contents it had, and both stay valid
// and canonical. A tree that never pinned copies nothing.
func TestAdoptIsolatesTheFork(t *testing.T) {
	for _, dims := range []int{2, 3} {
		rng := rand.New(rand.NewSource(31))
		tr := NewDefault(dims, geom.UniverseBox(dims, testSide))
		pts := workload.GenVarden(20000, dims, testSide, 3)
		tr.Build(pts)
		live := core.NewBruteForce(dims)
		live.Build(pts)
		ins, del := churn(rng, dims, live.Points(), 300)
		tr.BatchDiff(ins, del)
		live.BatchDiff(ins, del)
		if nodes, bytes := tr.Copied(); nodes != 0 || bytes != 0 {
			t.Fatalf("%dD: a tree that never pinned copied %d nodes, %d bytes", dims, nodes, bytes)
		}

		shadow := tr.Pin().(*Tree)
		if !tr.Current(shadow) || fingerprint(shadow) != fingerprint(tr) {
			t.Fatalf("%dD: the pinned view is not the tree's contents", dims)
		}
		frozen := core.NewBruteForce(dims)
		frozen.Build(live.Points())
		total := nodeCount(tr)

		// step applies one diff to the writer and checks it and the view.
		step := func(what string, a *Tree, ref *core.BruteForce, ins, del []geom.Point) {
			t.Helper()
			a.BatchDiff(ins, del)
			ref.BatchDiff(ins, del)
			verifyAgainst(t, what+": writer", tr, live)
			verifyAgainst(t, what+": view", shadow, frozen)
		}
		// The first update finds its root shared: a pure insert through
		// the skeleton.
		ins, _ = churn(rng, dims, nil, 400)
		step("insert", tr, live, ins, nil)
		for _, n := range []int{40, 400, 10, 1000, 100} {
			ins, del := churn(rng, dims, live.Points(), n)
			step("churn", tr, live, ins, del)
		}
		// Deleting the points nearest q empties the subtrees around it and
		// leaves the ones at the rim at or below the leaf wrap: they flatten.
		for _, k := range []int{100, 1500} {
			q := live.Points()[rng.Intn(live.Size())]
			step("collapse", tr, live, nil, tr.KNN(q, k, nil))
		}
		// A run of batches into one spot: the first leaf absorbs, then it
		// splits, then the skeleton path splits what grew below it.
		q := live.Points()[rng.Intn(live.Size())]
		for _, n := range []int{10, 20, 30, 300} {
			step("split", tr, live, cluster(q, dims, n), nil)
		}
		if tr.Current(shadow) {
			t.Fatalf("%dD: the view is still current after updates", dims)
		}
		nodes, bytes := tr.Copied()
		if nodes == 0 || bytes == 0 || int(nodes) > total {
			t.Fatalf("%dD: updates of a shared %d-node tree copied %d nodes, %d bytes", dims, total, nodes, bytes)
		}

		// A second view, pinned now and unpinned first: the collapse and
		// the emptying below free what both views reach, and the first
		// view must keep it.
		second := tr.Pin()
		step("second view", tr, live, nil, tr.KNN(q, 200, nil))
		tr.Unpin(second)

		// Emptying the tree does not empty the view.
		step("writer emptied", tr, live, nil, live.Points())
		if tr.Size() != 0 {
			t.Fatalf("%dD: %d points left after deleting all", dims, tr.Size())
		}
		tr.Unpin(shadow)
	}
}

// TestAdoptRefusesStrangers: Unpin refuses, and Current denies, an index
// the tree did not pin — another tree, a view of another tree, a view
// already unpinned — and a refusal changes nothing.
func TestAdoptRefusesStrangers(t *testing.T) {
	tr := newTest2D()
	pts := workload.GenUniform(500, 2, testSide, 1)
	tr.Build(pts)
	other := newTest2D()
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
	tr := newTest2D()
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
	for _, dims := range []int{2, 3} {
		tr := NewDefault(dims, geom.UniverseBox(dims, testSide))
		tr.Build(workload.GenUniform(500, dims, testSide, 1))
		cur := tr.Pin()
		cycle := func() {
			next := tr.Pin()
			tr.Unpin(cur)
			cur = next
		}
		cycle()
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Fatalf("%dD: a warm Pin and Unpin allocate %.1f times, want 0", dims, allocs)
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
	tr := newTest2D()
	pts := workload.GenVarden(n, 2, testSide, 17)
	tr.Build(pts)
	shadow := tr.Pin().(*Tree)

	queries := workload.GenUniform(16, 2, testSide, 19)
	boxes := workload.RangeQueries(16, 2, testSide, 0.01, 23)
	wantNN := make([][]geom.Point, len(queries))
	wantCount := make([]int, len(boxes))
	for i, q := range queries {
		wantNN[i] = shadow.KNN(q, 5, nil)
	}
	for i, b := range boxes {
		wantCount[i] = shadow.RangeCount(b)
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
				nn = shadow.KNN(queries[j], 5, nn[:0])
				for k := range nn {
					if geom.Dist2(nn[k], queries[j], 2) != geom.Dist2(wantNN[j][k], queries[j], 2) {
						t.Errorf("reader: KNN %d changed under the writer", j)
						return
					}
				}
				if got := shadow.RangeCount(boxes[j]); got != wantCount[j] {
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
		if round%2 == 1 {
			b = smallBatch / 2
		}
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
	validateOrFail(t, shadow)
	validateOrFail(t, third.(*Tree))
	if tr.Size() != n || shadow.Size() != n {
		t.Fatalf("sizes %d / %d after even exchanges, want %d", tr.Size(), shadow.Size(), n)
	}
}

// TestValidateChecksStamps: Validate refuses a node newer than the tree
// that reaches it and a child newer than its parent.
func TestValidateChecksStamps(t *testing.T) {
	tr := newTest2D()
	tr.Build(workload.GenUniform(2000, 2, testSide, 7))
	shadow := tr.Pin().(*Tree) // tr at generation 1, its view at 0
	validateOrFail(t, tr)
	validateOrFail(t, shadow)

	in2(tr).root.gen = in2(tr).Gen
	if shadow.Validate() == nil {
		t.Fatal("a node newer than its tree passed Validate")
	}
	in2(tr).root.gen = 0
	for _, c := range in2(tr).root.kids {
		if c != nil {
			c.gen = 1
			break
		}
	}
	if tr.Validate() == nil {
		t.Fatal("a child newer than its parent passed Validate")
	}
}

// TestOwnedAndSharedUpdatesAgree: updates that write the nodes they own in
// place and recycle the blocks they displace build the canonical tree, as
// do updates that find every node shared and copy what they touch. A raw
// tree and a twin that pins a view before every batch, unpinning the one
// before, take the same batches — from a few points to past seqCutoff,
// where forked branches draw from one recycler, with runs of a repeated
// point — and after each both must equal a fresh Build of the live points;
// the view, holding the tree of before the batch, must still equal a Build
// of the points of then: nothing it reaches was written or recycled.
func TestOwnedAndSharedUpdatesAgree(t *testing.T) {
	for _, dims := range []int{2, 3} {
		u := geom.UniverseBox(dims, testSide)
		rng := rand.New(rand.NewSource(int64(40 + dims)))
		pts := workload.GenVarden(12000, dims, testSide, 5)
		raw, twin := NewDefault(dims, u), NewDefault(dims, u)
		raw.Build(pts)
		twin.Build(pts)
		live := core.NewBruteForce(dims)
		live.Build(pts)
		var replica *Tree
		for round, n := range []int{30, 300, 3000, 60, 2500, 10, 600, 4000, 200, 5000, 1} {
			ins, del := churn(rng, dims, live.Points(), n)
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
			before := New(twin.Options())
			before.Build(live.Points())
			apply(raw)
			apply(twin)
			apply(live)
			after := New(twin.Options())
			after.Build(live.Points())
			for _, c := range []struct {
				what      string
				got, want *Tree
			}{{"raw tree", raw, after}, {"twin", twin, after}, {"view", replica, before}} {
				validateOrFail(t, c.got)
				if !StructuralEqual(c.got, c.want) {
					t.Fatalf("%dD round %d (%d points): the %s differs from a Build of its points", dims, round, n, c.what)
				}
			}
		}
	}
}
