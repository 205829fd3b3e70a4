package core

import (
	"sync"
	"testing"
)

// Grow and Fit size blocks as the leaf-block rules say, draw from the
// recycler a block of a size in the range they would allocate, and give
// back the block they leave only when the caller owns it.
func TestRecyclerGrowAndFit(t *testing.T) {
	var r Recycler[int]
	blk := make([]int, 10)
	if got := r.Grow(blk, 0, 40, true); &got[0] != &blk[0] {
		t.Fatal("Grow with room moved the block")
	}
	g := r.Grow(blk, 6, 40, false) // need 16: a new block of 16 + 2 + 1
	if len(g) != 10 || cap(g) != 19 || r.held != 0 {
		t.Fatalf("Grow to 16: len %d cap %d, %d held; want 10, 19 and nothing given back", len(g), cap(g), r.held)
	}
	if g := r.Grow(make([]int, 30), 9, 40, true); cap(g) != 40 || r.held != 30 {
		t.Fatalf("Grow past the limit's reach: cap %d, %d held; want 40, the old 30", cap(g), r.held)
	}
	// Growing 27 elements by one takes a block of capacity 28 to 32: the
	// recycled 30.
	old := make([]int, 27)
	if g := r.Grow(old, 1, 40, true); cap(g) != 30 || r.held != 27 {
		t.Fatalf("Grow drew cap %d with %d held; want the recycled 30, and the old 27 held", cap(g), r.held)
	}
	if m := r.Make(27); len(m) != 27 || cap(m) != 27 || r.held != 0 {
		t.Fatalf("Make(27): len %d cap %d, %d held; want the recycled block", len(m), cap(m), r.held)
	}
	if m := r.Make(5); cap(m) != 5 {
		t.Fatalf("Make(5) from an empty recycler: cap %d", cap(m))
	}

	full := make([]int, 10, 20)
	if f := r.Fit(full, true); &f[0] != &full[0] || r.held != 0 {
		t.Fatal("Fit moved a block filled to half")
	}
	sparse := make([]int, 4, 20)
	if f := r.Fit(sparse, true); cap(f) != 4 || len(f) != 4 || r.held != 20 {
		t.Fatalf("Fit of 4 in 20: cap %d, %d held; want 4, and the 20 given back", cap(f), r.held)
	}
	if f := r.Fit(make([]int, 4, 20), false); cap(f) != 4 || r.held != 20 {
		t.Fatalf("Fit of a block the caller does not own gave it back (%d held)", r.held)
	}

	var none *Recycler[int]
	if g := none.Grow(make([]int, 3), 5, 40, true); cap(g) != 10 {
		t.Fatalf("nil recycler Grow: cap %d, want 10", cap(g))
	}
	none.Put(make([]int, 8))
	if f := none.Fit(make([]int, 1, 8), true); cap(f) != 1 {
		t.Fatalf("nil recycler Fit: cap %d", cap(f))
	}
}

// Put keeps at most maxRecycledClassElems elements of blocks of one size,
// no block past maxRecycledCap and at most maxRecycledElems elements in
// all.
func TestRecyclerBounds(t *testing.T) {
	var r Recycler[int]
	for _, c := range []int{8, 40} {
		for range maxRecycledClassElems/c + 5 {
			r.Put(make([]int, 0, c))
		}
		if got, want := len(r.free[c]), maxRecycledClassElems/c; got != want {
			t.Fatalf("%d blocks of capacity %d held, want %d", got, c, want)
		}
	}
	r.Put(make([]int, 0, maxRecycledCap+1))
	if want := maxRecycledClassElems/8*8 + maxRecycledClassElems/40*40; r.held != want {
		t.Fatalf("%d elements held, want %d", r.held, want)
	}
	for c := maxRecycledCap; c > 0; c-- {
		for range maxRecycledClassElems/c + 1 {
			r.Put(make([]int, 0, c))
		}
	}
	if r.held > maxRecycledElems {
		t.Fatalf("%d elements held, bound %d", r.held, maxRecycledElems)
	}
}

// The forked branches of one update share a recycler and free lists; run
// under -race, this is their synchronisation.
func TestRecyclerConcurrentUse(t *testing.T) {
	var r Recycler[int]
	var f FreeList[[4]int]
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				b := r.Make(1 + (g+i)%40)
				b[0] = g
				r.Put(r.Grow(b, 3, 64, true))
				x := f.Get()
				x[0] = g
				*x = [4]int{}
				f.Put(x)
			}
		}()
	}
	wg.Wait()
}

// Scratch reuses what it kept, and keeps nothing longer than ScratchCap.
func TestScratchRetention(t *testing.T) {
	var keep []int
	s := Scratch(&keep, 100)
	if len(s) != 100 || cap(keep) != 100 {
		t.Fatalf("first use: len %d, kept cap %d", len(s), cap(keep))
	}
	if s2 := Scratch(&keep, 50); &s2[0] != &s[0] {
		t.Fatal("a shorter request did not reuse the kept slice")
	}
	if big := Scratch(&keep, ScratchCap+1); len(big) != ScratchCap+1 || cap(keep) != 100 {
		t.Fatalf("a bulk request was kept (kept cap %d)", cap(keep))
	}
}

// A FreeList hands back what it was given, then new objects, and keeps at
// most maxFreeList.
func TestFreeList(t *testing.T) {
	var f FreeList[int]
	x := new(int)
	f.Put(x)
	if f.Get() != x {
		t.Fatal("Get did not return the object put")
	}
	if y := f.Get(); y == nil || y == x {
		t.Fatal("Get on an empty list did not return a new object")
	}
	for range maxFreeList + 10 {
		f.Put(new(int))
	}
	if len(f.free) != maxFreeList {
		t.Fatalf("%d held, bound %d", len(f.free), maxFreeList)
	}
}
