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

// TestReclaimAtAdoptSparesEveryHandle churns twins under the version
// cell's protocol — each window applied to the off-line handle while
// readers query the published one, which then adopts it — so that every
// Adopt reclaims what the window retired, and checks that no node a handle
// can still reach is ever reused. Windows are BatchDiffs of 2048 moves, so
// the skeleton's slots are updated in parallel and retire at once. Midway
// a third handle adopts the published one and is never updated again: that
// breaks the pair, so the next window's retirements must go to the
// collector, and the pair that forms at the Adopt after it must never
// retire the nodes the third handle holds. After every window the handle
// it updated must pass Validate, the published handle of before the window
// must be node by node what it was, and the third handle node by node a
// Build of its points and as it was when it adopted; readers on both run
// throughout, for -race. A stale partner, a missing generation floor or a
// node reused before the Adopt each fail it.
func TestReclaimAtAdoptSparesEveryHandle(t *testing.T) {
	const n, moves, windows = 16000, 2048, 120
	for _, dims := range []int{2, 3} {
		u := geom.UniverseBox(dims, testSide)
		cur := NewDefault(dims, u)
		rng := rand.New(rand.NewSource(int64(60 + dims)))
		pts := workload.GenVarden(n, dims, testSide, 7)
		cur.Build(pts)
		live := slices.Clone(pts)
		standby := cur.NewReplica().(*Tree)
		standby.Adopt(cur)

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
			standby.BatchDiff(ins, del)
			done()
			validateOrFail(t, standby)
			if fingerprint(cur) != before {
				t.Fatalf("%dD window %d: applying it to the off-line handle changed the published one", dims, w)
			}
			// The published handle's readers have ended: it adopts.
			cur.Adopt(standby)
			cur, standby = standby, cur
			if w == windows/2 {
				third = cur.NewReplica().(*Tree)
				third.Adopt(cur)
				thirdPrint = fingerprint(third)
				thirdBuilt = New(third.Options())
				thirdBuilt.Build(live)
				readers.Add(1)
				go func() {
					defer readers.Done()
					readUntil(t, third, dims, stop)
				}()
			}
			if third != nil {
				if fingerprint(third) != thirdPrint || !StructuralEqual(third, thirdBuilt) {
					t.Fatalf("%dD window %d: the third handle changed after adopting at window %d", dims, w, windows/2)
				}
			}
		}
		close(stop)
		readers.Wait()
		validateOrFail(t, third)
		ref := core.NewBruteForce(dims)
		ref.Build(live)
		verifyAgainst(t, fmt.Sprintf("%dD after the churn", dims), cur, ref)
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
