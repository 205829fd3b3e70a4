package spactree

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
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

// TestAdoptIsolatesTheFork: after Adopt the two trees are one structure;
// whatever either goes on to do, the other keeps answering from the
// contents it had, and both stay valid. A tree that never adopted copies
// nothing.
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
			t.Fatalf("%s: a tree that never adopted copied %d nodes, %d bytes", tr.Name(), nodes, bytes)
		}

		shadow := tr.NewReplica().(*Tree)
		if !shadow.Adopt(tr) || !shadow.Shares(tr) || !tr.Shares(shadow) {
			t.Fatalf("%s: Adopt did not leave the two sharing", tr.Name())
		}
		frozen := core.NewBruteForce(2)
		frozen.Build(live.Points())
		total := countNodes(in2(tr).root)

		for round := 0; round < 12; round++ {
			ins, del := churn(rng, live.Points(), 150)
			tr.BatchDiff(ins, del)
			live.BatchDiff(ins, del)
			verifyAgainst(t, "original", tr, live)
			verifyAgainst(t, "shadow", shadow, frozen)
		}
		if tr.Shares(shadow) {
			t.Fatalf("%s: still sharing the root after updates", tr.Name())
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

		// The other direction: the shadow's updates leave the original alone.
		ins, del = churn(rng, frozen.Points(), 400)
		shadow.BatchDiff(ins, del)
		frozen.BatchDiff(ins, del)
		verifyAgainst(t, "original after shadow update", tr, live)
		verifyAgainst(t, "shadow after own update", shadow, frozen)

		// Emptying one side does not empty the other.
		tr.BatchDelete(live.Points())
		if tr.Size() != 0 {
			t.Fatalf("%s: %d points left after deleting all", tr.Name(), tr.Size())
		}
		verifyAgainst(t, "shadow after original emptied", shadow, frozen)
	}
}

// TestAdoptRefusesStrangers: only a replica is adopted; a refusal changes
// nothing.
func TestAdoptRefusesStrangers(t *testing.T) {
	tr := NewSPaC(sfc.Hilbert, 2, universe())
	pts := workload.GenUniform(500, 2, testSide, 1)
	tr.Build(pts)
	other := workload.GenUniform(300, 2, testSide, 2)
	opts := in2(tr).opts
	opts.LeafWrap = 16
	for _, src := range []core.Index{
		NewSPaC(sfc.Morton, 2, universe()),
		NewCPAM(sfc.Hilbert, 2, universe()),
		New(sfc.Hilbert, PartialOrder, opts),
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
	tr := NewSPaC(sfc.Hilbert, 2, universe())
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

// TestCopiedCountsLeafPoints: Copied counts the leaf element actually
// copied, a stored point — 8 bytes in 2-D, 12 in 3-D. A SPaC tree of one
// leaf of m points, shared by Adopt, copies that leaf once when a batch is
// absorbed into it, and its replica copies it once when a delete removes a
// point from it; a CPAM leaf is rebuilt on every touch and never copied.
func TestCopiedCountsLeafPoints(t *testing.T) {
	const m = 25
	for _, dims := range []int{2, 3} {
		u := geom.UniverseBox(dims, testSide)
		pts := workload.GenUniform(m+5, dims, testSide, 7)
		width := uint64(4 * dims)
		for _, tr := range []*Tree{NewSPaC(sfc.Hilbert, dims, u), NewCPAM(sfc.Hilbert, dims, u)} {
			tr.Build(pts[:m])
			if tr.Height() != 1 {
				t.Fatalf("%s %dD: %d points built a tree of height %d, want one leaf", tr.Name(), dims, m, tr.Height())
			}
			shadow := tr.NewReplica().(*Tree)
			shadow.Adopt(tr)
			tr.BatchInsert(pts[m:])
			shadow.BatchDelete(pts[:1])
			want := width * m
			if tr.Name() == "CPAM-H" {
				want = 0
			}
			for _, side := range []*Tree{tr, shadow} {
				nodes, bytes := side.Copied()
				if bytes != want || nodes != min(want, 1) {
					t.Errorf("%s %dD: copying a shared %d-point leaf counted %d nodes, %d bytes; want %d, %d",
						side.Name(), dims, m, nodes, bytes, min(want, 1), want)
				}
				validateOrFail(t, side)
			}
			if tr.Size() != m+5 || shadow.Size() != m-1 {
				t.Fatalf("%s %dD: sizes %d and %d after the updates", tr.Name(), dims, tr.Size(), shadow.Size())
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
// raw tree and a twin whose replica adopts it before every batch take the
// same batches — from a few points to past seqCutoff, where forked
// branches draw from one recycler, with runs of a repeated point — and
// must match node by node after each. The replica, left holding the tree
// of before the batch, must not have changed: nothing it reaches was
// written or recycled.
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
			replica := twin.NewReplica().(*Tree)
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
				replica.Adopt(twin)
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
					t.Fatalf("%s round %d (%d points): the twin's update changed the tree its replica holds", name, round, n)
				}
			}
		}
	}
}

// TestCopiedCountsSmallInteriorNodes: a shared interior node whose
// subtree holds more than φ points but at most 2φ is copied on first touch
// and counted like a larger one. Built from 2·30+1 points at φ = 40, a
// tree is one interior node over two 30-point leaves; after Adopt, one
// point absorbed into a leaf copies the root too. A SPaC tree copies the
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
			shadow := tr.NewReplica().(*Tree)
			shadow.Adopt(tr)
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
			if tr.Shares(shadow) || shadow.Size() != 61 || tr.Size() != 62 {
				t.Fatalf("%s %dD: sizes %d and %d after the insert", tr.Name(), dims, tr.Size(), shadow.Size())
			}
		}
	}
}
