package orthtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// TestReclaimAtUnpinSparesEveryView churns a writer under the version
// cell's protocol — each window applied to the writer while readers query
// the published view, then a view of the result pinned and the old one
// unpinned — so that every Unpin reclaims what the window displaced, and
// checks that no node a view can still reach is ever reused. Windows are
// BatchDiffs of 2048 moves, so the skeleton's slots are updated in
// parallel and free at once. Midway a third view is pinned and held to the
// end: the lists of every view pinned after it must wait for it, since
// they hold nodes it reaches. After every window the writer must pass
// Validate, the published view of before the window must be node by node
// what it was, and the third view node by node a Build of its points and
// as it was when pinned; readers on both run throughout, for -race. A
// shared node recycled at once, or a list reclaimed while an older view is
// still pinned, each fail it.
func TestReclaimAtUnpinSparesEveryView(t *testing.T) {
	const n, moves, windows = 16000, 2048, 120
	for _, dims := range []int{2, 3} {
		u := geom.UniverseBox(dims, testSide)
		tr := NewDefault(dims, u)
		rng := rand.New(rand.NewSource(int64(60 + dims)))
		pts := workload.GenVarden(n, dims, testSide, 7)
		tr.Build(pts)
		live := slices.Clone(pts)
		cur := tr.Pin().(*Tree)

		var third, thirdBuilt *Tree
		var thirdPrint uint64
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for w := range windows {
			ins, del := make([]geom.Point, moves), make([]geom.Point, moves)
			for i, j := range rng.Perm(len(live))[:moves] {
				del[i] = live[j]
				for d := range dims {
					live[j][d] = rng.Int63n(testSide)
				}
				ins[i] = live[j]
			}
			before := fingerprint(cur)
			done := readWhile(t, cur, dims)
			tr.BatchDiff(ins, del)
			next := tr.Pin().(*Tree)
			done()
			validateOrFail(t, tr)
			if fingerprint(cur) != before {
				t.Fatalf("%dD window %d: applying it to the writer changed the published view", dims, w)
			}
			// The published view's readers have ended: it is unpinned.
			tr.Unpin(cur)
			cur = next
			if w == windows/2 {
				third = tr.Pin().(*Tree)
				thirdPrint = fingerprint(third)
				thirdBuilt = New(tr.Options())
				thirdBuilt.Build(live)
				readers.Add(1)
				go func() {
					defer readers.Done()
					readUntil(t, third, dims, stop)
				}()
			}
			if third != nil {
				if fingerprint(third) != thirdPrint || !StructuralEqual(third, thirdBuilt) {
					t.Fatalf("%dD window %d: the third view changed after it was pinned at window %d", dims, w, windows/2)
				}
			}
		}
		close(stop)
		readers.Wait()
		validateOrFail(t, third)
		tr.Unpin(third)
		ref := core.NewBruteForce(dims)
		ref.Build(live)
		verifyAgainst(t, fmt.Sprintf("%dD after the churn", dims), cur, ref)
		verifyAgainst(t, fmt.Sprintf("%dD writer after the churn", dims), tr, ref)
	}
}

// fingerprint hashes everything a tree's nodes hold — their addresses,
// stamps, sizes, boxes, child arrays and leaf points in stored order — so
// that two readings differ when any node it reaches was written or reused.
func fingerprint(tr *Tree) uint64 {
	switch in := tr.body.(type) {
	case *tree[[2]int32]:
		return printOf(in.root, 14695981039346656037)
	case *tree[[3]int32]:
		return printOf(in.root, 14695981039346656037)
	}
	panic("unknown tree")
}

func printOf[S geom.Packed](nd *node[S], h uint64) uint64 {
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	mixPoint := func(p S) {
		for _, b := range unsafe.Slice((*byte)(unsafe.Pointer(&p)), unsafe.Sizeof(p)) {
			mix(uint64(b))
		}
	}
	mix(uint64(uintptr(unsafe.Pointer(nd))))
	if nd == nil {
		return h
	}
	mix(nd.gen)
	mix(uint64(nd.size))
	mixPoint(nd.bbox.Lo)
	mixPoint(nd.bbox.Hi)
	for _, p := range nd.pts {
		mixPoint(p)
	}
	for _, c := range nd.kids {
		h = printOf(c, h)
	}
	return h
}

// readWhile starts a reader that queries tr, which nothing may change, and
// checks every answer against the first; the returned func stops it.
func readWhile(t *testing.T, tr *Tree, dims int) (stop func()) {
	ch := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readUntil(t, tr, dims, ch)
	}()
	return func() {
		close(ch)
		wg.Wait()
	}
}

// readUntil queries tr until stop closes, failing t when an answer changes.
func readUntil(t *testing.T, tr *Tree, dims int, stop <-chan struct{}) {
	qs := workload.GenUniform(4, dims, testSide, 11)
	boxes := workload.RangeQueries(4, dims, testSide, 0.005, 13)
	want := make([]int, len(boxes))
	for i, b := range boxes {
		want[i] = tr.RangeCount(b)
	}
	wantNN := tr.KNN(qs[0], 8, nil)
	var nn []geom.Point
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if got := tr.RangeCount(boxes[i%len(boxes)]); got != want[i%len(boxes)] {
			t.Errorf("%s: RangeCount changed under a reader: %d, was %d", tr.Name(), got, want[i%len(boxes)])
			return
		}
		nn = tr.KNN(qs[0], 8, nn[:0])
		for k := range nn {
			if geom.Dist2(nn[k], qs[0], dims) != geom.Dist2(wantNN[k], qs[0], dims) {
				t.Errorf("%s: KNN changed under a reader", tr.Name())
				return
			}
		}
	}
}
