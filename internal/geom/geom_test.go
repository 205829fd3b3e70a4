package geom

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDist2(t *testing.T) {
	p, q := Pt2(0, 0), Pt2(3, 4)
	if d := Dist2(p, q, 2); d != 25 {
		t.Fatalf("Dist2 = %d, want 25", d)
	}
	if d := Dist2(Pt3(1, 2, 3), Pt3(4, 6, 3), 3); d != 25 {
		t.Fatalf("3D Dist2 = %d, want 25", d)
	}
	// 2D distance must ignore the Z slot.
	if d := Dist2(Pt3(0, 0, 100), Pt3(0, 0, -100), 2); d != 0 {
		t.Fatalf("2D Dist2 with Z noise = %d, want 0", d)
	}
}

func TestDist2NoOverflow(t *testing.T) {
	// Paper coordinates are in [0, 1e9]; the extreme corner pair must not
	// overflow int64.
	p, q := Pt3(0, 0, 0), Pt3(1e9, 1e9, 1e9)
	want := int64(3e18)
	if d := Dist2(p, q, 3); d != want {
		t.Fatalf("Dist2 = %d, want %d", d, want)
	}
	// The corner pair of [0, 2³¹−1]², the largest 2-D universe from the
	// origin that the int32-storing trees accept, through Dist2 and
	// through its stored form.
	c := int64(1<<31 - 1)
	lo, hi := Pt2(0, 0), Pt2(c, c)
	if d := Dist2(lo, hi, 2); d != 2*c*c {
		t.Fatalf("Dist2 of the 2-D int32 corners = %d, want %d", d, 2*c*c)
	}
	if d := PackedDist2(Pack[[2]int32](hi), &lo); d != 2*c*c {
		t.Fatalf("PackedDist2 of the 2-D int32 corners = %d, want %d", d, 2*c*c)
	}
}

func TestLessEqual(t *testing.T) {
	if !Less(Pt2(1, 9), Pt2(2, 0), 2) {
		t.Fatal("lexicographic Less failed on first dim")
	}
	if !Less(Pt2(1, 1), Pt2(1, 2), 2) {
		t.Fatal("lexicographic Less failed on second dim")
	}
	if Less(Pt2(1, 1), Pt2(1, 1), 2) {
		t.Fatal("Less on equal points")
	}
	if !Equal(Pt2(1, 1), Pt2(1, 1), 2) || Equal(Pt2(1, 1), Pt2(1, 2), 2) {
		t.Fatal("Equal wrong")
	}
}

func TestEmptyBoxIdentity(t *testing.T) {
	e := EmptyBox(2)
	if !e.IsEmpty() {
		t.Fatal("EmptyBox not empty")
	}
	b := BoxOf(Pt2(1, 2), Pt2(3, 4))
	if got := e.Union(b, 2); got != b {
		t.Fatalf("EmptyBox union = %v, want %v", got, b)
	}
	if got := b.Union(e, 2); got != b {
		t.Fatalf("union with empty = %v, want %v", got, b)
	}
	if e.Contains(Pt2(0, 0), 2) {
		t.Fatal("EmptyBox contains a point")
	}
}

func TestBoxContainsIntersects(t *testing.T) {
	b := BoxOf(Pt2(0, 0), Pt2(10, 10))
	if !b.Contains(Pt2(0, 0), 2) || !b.Contains(Pt2(10, 10), 2) {
		t.Fatal("box must be closed (inclusive corners)")
	}
	if b.Contains(Pt2(11, 5), 2) || b.Contains(Pt2(5, -1), 2) {
		t.Fatal("contains point outside")
	}
	cases := []struct {
		o    Box
		want bool
	}{
		{BoxOf(Pt2(10, 10), Pt2(20, 20)), true}, // corner touch counts
		{BoxOf(Pt2(11, 0), Pt2(20, 10)), false}, // separated in x
		{BoxOf(Pt2(-5, -5), Pt2(15, 15)), true}, // superset
		{BoxOf(Pt2(3, 3), Pt2(4, 4)), true},     // subset
		{BoxOf(Pt2(0, 11), Pt2(10, 12)), false}, // separated in y
	}
	for i, c := range cases {
		if got := b.Intersects(c.o, 2); got != c.want {
			t.Errorf("case %d: Intersects(%v) = %v, want %v", i, c.o, got, c.want)
		}
		if got := c.o.Intersects(b, 2); got != c.want {
			t.Errorf("case %d: Intersects not symmetric", i)
		}
	}
	if !b.ContainsBox(BoxOf(Pt2(1, 1), Pt2(9, 9)), 2) {
		t.Fatal("ContainsBox subset")
	}
	if b.ContainsBox(BoxOf(Pt2(1, 1), Pt2(11, 9)), 2) {
		t.Fatal("ContainsBox overhang")
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{Pt2(5, 1), Pt2(-3, 7), Pt2(0, 0)}
	b := BoundingBox(pts, 2)
	want := BoxOf(Pt2(-3, 0), Pt2(5, 7))
	if b != want {
		t.Fatalf("BoundingBox = %v, want %v", b, want)
	}
	if !BoundingBox(nil, 2).IsEmpty() {
		t.Fatal("BoundingBox(nil) must be empty")
	}
}

func TestBoxDist2(t *testing.T) {
	b := BoxOf(Pt2(0, 0), Pt2(10, 10))
	if d := b.Dist2(Pt2(5, 5), 2); d != 0 {
		t.Fatalf("inside dist = %d", d)
	}
	if d := b.Dist2(Pt2(13, 14), 2); d != 3*3+4*4 {
		t.Fatalf("corner dist = %d, want 25", d)
	}
	if d := b.Dist2(Pt2(-2, 5), 2); d != 4 {
		t.Fatalf("face dist = %d, want 4", d)
	}
}

func TestQuadrantChildPartition(t *testing.T) {
	// Child(i) for i in [0, 2^dims) must partition the box, and Quadrant
	// must route each point to the child that contains it.
	for _, dims := range []int{2, 3} {
		b := BoxOf(Pt3(0, 0, 0), Pt3(7, 9, 5))
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 2000; trial++ {
			var p Point
			for d := 0; d < dims; d++ {
				p[d] = rng.Int63n(b.Hi[d] + 1)
			}
			q := b.Quadrant(p, dims)
			if !b.Child(q, dims).Contains(p, dims) {
				t.Fatalf("dims=%d: child %d of %v does not contain %v", dims, q, b, p)
			}
			// No other child contains it (disjointness).
			for i := 0; i < 1<<dims; i++ {
				if i != q && b.Child(i, dims).Contains(p, dims) {
					t.Fatalf("dims=%d: point %v in two children (%d and %d)", dims, p, q, i)
				}
			}
		}
	}
}

func TestChildDegenerate(t *testing.T) {
	// A single-cell box is not splittable; a 1-wide box is.
	b := BoxOf(Pt2(5, 5), Pt2(5, 5))
	if b.Splittable(2) {
		t.Fatal("point box must not be splittable")
	}
	b2 := BoxOf(Pt2(5, 5), Pt2(6, 5))
	if !b2.Splittable(2) {
		t.Fatal("1-wide box must be splittable")
	}
	// Splitting b2 must separate the two cells.
	c0, c1 := b2.Child(0, 2), b2.Child(1, 2)
	if !c0.Contains(Pt2(5, 5), 2) || !c1.Contains(Pt2(6, 5), 2) {
		t.Fatalf("degenerate split wrong: %v %v", c0, c1)
	}
}

func TestWidestDim(t *testing.T) {
	b := BoxOf(Pt3(0, 0, 0), Pt3(5, 20, 10))
	if d := b.WidestDim(3); d != 1 {
		t.Fatalf("WidestDim = %d, want 1", d)
	}
	if d := b.WidestDim(2); d != 1 {
		t.Fatalf("WidestDim 2D = %d, want 1", d)
	}
}

func TestBoxDist2IsLowerBound(t *testing.T) {
	// Property: for any point q and any point p inside box b,
	// b.Dist2(q) <= Dist2(p, q).
	f := func(qx, qy, ax, ay, bx, by int16) bool {
		q := Pt2(int64(qx), int64(qy))
		lo := Pt2(min64(int64(ax), int64(bx)), min64(int64(ay), int64(by)))
		hi := Pt2(max64(int64(ax), int64(bx)), max64(int64(ay), int64(by)))
		b := BoxOf(lo, hi)
		// Sample a few points inside the box.
		rng := rand.New(rand.NewSource(int64(qx)<<16 ^ int64(qy)))
		for i := 0; i < 8; i++ {
			p := Pt2(lo[0]+rng.Int63n(b.Side(0)+1), lo[1]+rng.Int63n(b.Side(1)+1))
			if b.Dist2(q, 2) > Dist2(p, q, 2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNHeapBasic(t *testing.T) {
	h := GetKNNHeap(3)
	pts := []Point{Pt2(0, 9), Pt2(0, 2), Pt2(0, 7), Pt2(0, 1), Pt2(0, 5)}
	q := Pt2(0, 0)
	for _, p := range pts {
		h.Push(p, Dist2(p, q, 2))
	}
	if !h.Full() {
		t.Fatal("heap should be full")
	}
	if h.Bound() != 25 {
		t.Fatalf("Bound = %d, want 25", h.Bound())
	}
	out := h.Append(nil)
	want := []int64{1, 4, 25}
	for i, p := range out {
		if d := Dist2(p, q, 2); d != want[i] {
			t.Fatalf("result %d: dist %d, want %d", i, d, want[i])
		}
	}
	if h.Len() != 0 {
		t.Fatal("Append must consume the heap")
	}
}

func TestKNNHeapUnderfull(t *testing.T) {
	h := GetKNNHeap(10)
	h.Push(Pt2(1, 0), 1)
	h.Push(Pt2(2, 0), 4)
	if h.Full() {
		t.Fatal("should not be full")
	}
	if h.Bound() != int64(1<<63-1) {
		t.Fatal("underfull bound must be +inf")
	}
	out := h.Append(nil)
	if len(out) != 2 || out[0] != Pt2(1, 0) {
		t.Fatalf("underfull append = %v", out)
	}
}

func TestKNNHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		q := Pt2(rng.Int63n(1000), rng.Int63n(1000))
		pts := make([]Point, n)
		dists := make([]int64, n)
		h := GetKNNHeap(k)
		for i := range pts {
			pts[i] = Pt2(rng.Int63n(1000), rng.Int63n(1000))
			dists[i] = Dist2(pts[i], q, 2)
			h.Push(pts[i], dists[i])
		}
		sort.Slice(dists, func(i, j int) bool { return dists[i] < dists[j] })
		out := h.Append(nil)
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(out) != wantLen {
			t.Fatalf("len = %d, want %d", len(out), wantLen)
		}
		for i, p := range out {
			if d := Dist2(p, q, 2); d != dists[i] {
				t.Fatalf("trial %d: result %d dist %d, want %d", trial, i, d, dists[i])
			}
		}
	}
}

// TestMinQueueMatchesSort: pushes interleaved with pops hand out every key
// least first, each with the element pushed under it.
func TestMinQueueMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var q MinQueue[int]
		var keys, popped []int64
		for i := 0; i < 1+rng.Intn(300); i++ {
			d := rng.Int63n(100)
			q = q.Push(d, int(d)*10)
			keys = append(keys, d)
			if rng.Intn(3) == 0 {
				var e Keyed[int]
				q, e = q.Pop()
				if e.E != int(e.D)*10 {
					t.Fatalf("trial %d: popped %d under key %d", trial, e.E, e.D)
				}
				popped = append(popped, e.D)
				// Everything still queued is at least the key just popped.
				for _, x := range q {
					if x.D < e.D {
						t.Fatalf("trial %d: popped %d with %d still queued", trial, e.D, x.D)
					}
				}
			}
		}
		for len(q) > 0 {
			var e Keyed[int]
			q, e = q.Pop()
			popped = append(popped, e.D)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		sort.Slice(popped, func(i, j int) bool { return popped[i] < popped[j] })
		for i := range keys {
			if keys[i] != popped[i] {
				t.Fatalf("trial %d: popped keys %v, want %v", trial, popped, keys)
			}
		}
	}
}

func TestKNNHeapReset(t *testing.T) {
	h := GetKNNHeap(2)
	h.Push(Pt2(1, 1), 2)
	h.ResetK(2)
	if h.Len() != 0 || h.Full() {
		t.Fatal("Reset failed")
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestKNNHeapPoolReuse(t *testing.T) {
	// A pooled heap re-armed for a different k must behave like a fresh
	// heap: grow when k exceeds capacity, truncate cleanly when smaller.
	h := GetKNNHeap(2)
	h.Push(Pt2(0, 0), 4)
	h.Push(Pt2(1, 0), 1)
	h.Push(Pt2(2, 0), 9) // rejected: worse than bound with heap full
	if got := h.Append(nil); len(got) != 2 || got[0] != Pt2(1, 0) {
		t.Fatalf("pooled heap k=2: got %v", got)
	}
	PutKNNHeap(h)

	h = GetKNNHeap(5)
	if h.Len() != 0 || h.Full() {
		t.Fatal("reused heap not reset")
	}
	for i := 0; i < 7; i++ {
		h.Push(Pt2(int64(i), 0), int64(10-i))
	}
	if got := h.Append(nil); len(got) != 5 {
		t.Fatalf("re-armed heap k=5 returned %d", len(got))
	} else if got[0] != Pt2(6, 0) {
		t.Fatalf("nearest after re-arm: %v", got[0])
	}
	PutKNNHeap(h)

	// ResetK down then up again reuses capacity.
	h = GetKNNHeap(8)
	h.ResetK(3)
	h.Push(Pt2(1, 1), 1)
	if h.Bound() != int64(1<<63-1) {
		t.Fatal("bound should be unbounded below k candidates")
	}
	h.ResetK(8)
	if h.Len() != 0 {
		t.Fatal("ResetK did not clear")
	}
}
