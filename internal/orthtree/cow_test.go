package orthtree

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// countNodes returns the number of nodes under nd.
func countNodes(nd *node) int {
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
	scratch := New(tr.opts)
	scratch.Build(ref.Points())
	if !StructuralEqual(tr, scratch) {
		t.Fatalf("%s: the tree differs from a scratch build of its points", what)
	}
}

// TestAdoptIsolatesTheFork: after Adopt the two trees are one structure;
// whatever either goes on to do — batches below and above smallBatch (the
// depth-1 split and the skeleton), leaf absorbs and leaf splits, deletes
// that collapse subtrees into leaves or empty them — the other keeps
// answering from the contents it had, and both stay valid and canonical.
// A tree that never adopted copies nothing.
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
			t.Fatalf("%dD: a tree that never adopted copied %d nodes, %d bytes", dims, nodes, bytes)
		}

		shadow := tr.NewReplica().(*Tree)
		if !shadow.Adopt(tr) || !shadow.Shares(tr) || !tr.Shares(shadow) {
			t.Fatalf("%dD: Adopt did not leave the two sharing", dims)
		}
		frozen := core.NewBruteForce(dims)
		frozen.Build(live.Points())
		total := countNodes(tr.root)

		// step applies one diff to a, ref and checks both sides of the fork.
		step := func(what string, a *Tree, ref *core.BruteForce, ins, del []geom.Point) {
			t.Helper()
			a.BatchDiff(ins, del)
			ref.BatchDiff(ins, del)
			verifyAgainst(t, what+": original", tr, live)
			verifyAgainst(t, what+": shadow", shadow, frozen)
		}
		// The first update of either side finds its root shared: here a
		// pure insert through the skeleton, later a pure delete.
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
		if tr.Shares(shadow) {
			t.Fatalf("%dD: still sharing the root after updates", dims)
		}
		nodes, bytes := tr.Copied()
		if nodes == 0 || bytes == 0 || int(nodes) > total {
			t.Fatalf("%dD: updates of a shared %d-node tree copied %d nodes, %d bytes", dims, total, nodes, bytes)
		}

		// The other direction: the shadow's updates leave the original alone.
		ins, del = churn(rng, dims, frozen.Points(), 400)
		step("shadow delete", shadow, frozen, nil, del)
		step("shadow insert", shadow, frozen, ins, nil)
		step("shadow collapse", shadow, frozen, nil, shadow.KNN(q, 200, nil))

		// Emptying one side does not empty the other.
		step("original emptied", tr, live, nil, live.Points())
		if tr.Size() != 0 {
			t.Fatalf("%dD: %d points left after deleting all", dims, tr.Size())
		}
	}
}

// TestAdoptRefusesStrangers: only a replica is adopted — same family, same
// options; a refusal changes nothing.
func TestAdoptRefusesStrangers(t *testing.T) {
	tr := newTest2D()
	pts := workload.GenUniform(500, 2, testSide, 1)
	tr.Build(pts)
	other := workload.GenUniform(300, 2, testSide, 2)
	wrap := tr.opts
	wrap.LeafWrap = 16
	for _, src := range []core.Index{
		New(wrap),
		NewDefault(2, geom.UniverseBox(2, 2*testSide)),
		core.NewBruteForce(2),
	} {
		src.Build(other)
		if tr.Adopt(src) {
			t.Fatalf("adopted a %s", src.Name())
		}
		if tr.Size() != len(pts) || tr.Shares(src) {
			t.Fatalf("refusing a %s changed the tree", src.Name())
		}
	}
	if !tr.Adopt(tr) || tr.Size() != len(pts) {
		t.Fatal("adopting itself must be a no-op")
	}
	validateOrFail(t, tr)
}

// TestAdoptedSideReadsWhileWriterApplies is the -race half of fork
// isolation: readers query the adopted side with no lock at all while the
// writer applies 1 % batches to the original — and hands its structure to
// a third tree every few batches, so the writer keeps losing ownership of
// what it copied. The only memory both touch is what neither writes.
func TestAdoptedSideReadsWhileWriterApplies(t *testing.T) {
	const n = 40000
	tr := newTest2D()
	pts := workload.GenVarden(n, 2, testSide, 17)
	tr.Build(pts)
	shadow := tr.NewReplica().(*Tree)
	shadow.Adopt(tr)

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
	third := tr.NewReplica().(*Tree)
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
			third.Adopt(tr)
		}
	}
	close(stop)
	wg.Wait()
	validateOrFail(t, tr)
	validateOrFail(t, shadow)
	validateOrFail(t, third)
	if tr.Size() != n || shadow.Size() != n {
		t.Fatalf("sizes %d / %d after even exchanges, want %d", tr.Size(), shadow.Size(), n)
	}
}

// TestValidateChecksStamps: Validate refuses a node newer than the tree
// that reaches it and a child newer than its parent.
func TestValidateChecksStamps(t *testing.T) {
	tr := newTest2D()
	tr.Build(workload.GenUniform(2000, 2, testSide, 7))
	shadow := tr.NewReplica().(*Tree)
	shadow.Adopt(tr) // tr at generation 2, shadow at 1
	validateOrFail(t, tr)
	validateOrFail(t, shadow)

	tr.root.gen = tr.gen
	if shadow.Validate() == nil {
		t.Fatal("a node newer than its tree passed Validate")
	}
	tr.root.gen = 0
	for _, c := range tr.root.kids {
		if c != nil {
			c.gen = 1
			break
		}
	}
	if tr.Validate() == nil {
		t.Fatal("a child newer than its parent passed Validate")
	}
}
