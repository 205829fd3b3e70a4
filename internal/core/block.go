package core

import "sync"

// Leaf blocks of the trees whose leaves keep their points in a slice (the
// SPaC family and P-Orth). A block belongs to one leaf — no two leaves
// share an array — and is sized to what the leaf holds: it grows by about
// an eighth at a time, never past the leaf wrap, and a delete that leaves
// the leaf filling less than half of it moves the leaf into a fitted one.
// append's doubling would instead leave a tree at steady size with blocks
// its leaves can never fill.
//
// Blocks recycle. An update that displaces a block its tree owns — one
// never published to a reader: the old block of a grow or a fit, the block
// of a leaf that a split, a merge or a flatten replaced — gives it to the
// tree's Recycler, and the blocks the update needs next come from there
// before they come from the allocator. A block a pinned view may still
// reach is given back only once nothing reaches it: the block of a shared
// leaf an update displaced waits, with its leaf, for the views that reach
// it to be unpinned (handle.go). The caller, which knows whose block it is, decides. The
// methods below take a nil Recycler, which recycles nothing: Build passes
// nil.

// Recycler is a bounded, size-classed free list of leaf blocks (and of
// P-Orth's child arrays): a block of capacity c waits in class c, for c up
// to maxRecycledCap, a class holds at most maxRecycledClassElems elements
// — so that a size the tree displaces more often than it asks for, such
// as the sizes of a fresh Build's leaves, does not crowd out the others —
// and the blocks held total at most maxRecycledElems elements; past any
// of these, a block goes to the garbage collector. Blocks are handed out
// with length 0 or the length asked for and undefined contents, so E must
// hold no pointers the collector should see dropped. The forked branches
// of one update may use one Recycler at once.
type Recycler[E any] struct {
	mu    sync.Mutex
	free  [][][]E // free[c]: blocks of capacity c
	held  int     // elements of capacity held
	limit int     // largest capacity held, at most maxRecycledCap
}

const (
	// maxRecycledCap is the largest block a Recycler keeps, above every
	// leaf block at the paper's leaf wraps (a CPAM block holds 2φ = 80
	// elements); only a P-Orth leaf over a region too small to split
	// outgrows it.
	maxRecycledCap = 256
	// maxRecycledClassElems and maxRecycledElems bound what a Recycler
	// holds — 2 MiB of 2-D points in all — sized for what one commit
	// of a 4096-op window displaces from a pinned view over 3·10⁵ points
	// (≈ 6000 leaf blocks, ≈ 1.7·10⁵ elements), which comes back at the
	// view's Unpin all at once: at 2¹⁴ elements a class, such a window
	// allocated 9 B per moved object where it allocates 1. A class of c
	// elements holds at most 2¹⁵/c blocks: 819 at the leaf wrap φ = 40,
	// 8192 child arrays of a 2-D P-Orth node. Much past that, a raw
	// tree's recycler fills with the sizes its Build left and its churn
	// never asks for again.
	maxRecycledClassElems = 1 << 15
	maxRecycledElems      = 1 << 18
)

// Put gives blk to r. The caller asserts that nothing else reaches it.
func (r *Recycler[E]) Put(blk []E) {
	c := cap(blk)
	if r == nil || c == 0 || c > maxRecycledCap {
		return
	}
	r.mu.Lock()
	for len(r.free) <= c {
		r.free = append(r.free, nil)
	}
	if r.held+c <= maxRecycledElems && (len(r.free[c])+1)*c <= maxRecycledClassElems {
		r.free[c] = append(r.free[c], blk[:0])
		r.held += c
		r.limit = max(r.limit, c)
	}
	r.mu.Unlock()
}

// take returns a held block of capacity in [lo, hi], the largest there
// is, or nil.
func (r *Recycler[E]) take(lo, hi int) []E {
	if r == nil || lo < 1 || lo > maxRecycledCap {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := min(hi, r.limit); c >= lo; c-- {
		if k := len(r.free[c]); k > 0 {
			blk := r.free[c][k-1]
			r.free[c] = r.free[c][:k-1]
			r.held -= c
			return blk
		}
	}
	return nil
}

// Make returns a fitted block of length n — capacity n — from r when it
// holds one, else a new one.
func (r *Recycler[E]) Make(n int) []E {
	if blk := r.take(n, n); blk != nil {
		return blk[:n]
	}
	return make([]E, n)
}

// Grow returns blk with room for extra more elements: blk itself when it
// has the room, otherwise a copy in a block about an eighth larger than
// the elements it must hold, but no larger than limit unless they need
// more — one from r when it holds one of a size in between. blk goes to r
// when it was replaced and owned says the caller may give it.
func (r *Recycler[E]) Grow(blk []E, extra, limit int, owned bool) []E {
	need := len(blk) + extra
	if need <= cap(blk) {
		return blk
	}
	want := max(need, min(limit, need+need/8+1))
	nb := r.take(need, want)
	if nb == nil {
		nb = make([]E, 0, want)
	}
	nb = append(nb, blk...)
	if owned {
		r.Put(blk)
	}
	return nb
}

// Fit returns blk moved into a block of its own length when it fills less
// than half of the one it is in, and blk itself otherwise. The block it
// leaves goes to r when owned says the caller may give it.
func (r *Recycler[E]) Fit(blk []E, owned bool) []E {
	if 2*len(blk) >= cap(blk) {
		return blk
	}
	nb := r.Make(len(blk))
	copy(nb, blk)
	if owned {
		r.Put(blk)
	}
	return nb
}

// ScratchCap is the length up to which a tree keeps an update's scratch —
// a batch's entries or points and their sort or sieve buffer — for the
// next update: a window of a few thousand moves reuses it, and a bulk load
// pins nothing.
const ScratchCap = 4096

// Scratch returns a slice of length n with undefined contents: (*keep)[:n]
// when keep has the room, else a new slice, which replaces *keep when n is
// at most ScratchCap.
func Scratch[E any](keep *[]E, n int) []E {
	if n <= cap(*keep) {
		return (*keep)[:n]
	}
	s := make([]E, n)
	if n <= ScratchCap {
		*keep = s
	}
	return s
}

// FreeList is a bounded stack of objects — tree nodes, P-Orth skeletons —
// that an update replaced and may reuse, for the forked branches of one
// update at once. The caller clears what an object must not pin before it
// puts it.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// maxFreeList bounds a FreeList: above the nodes one commit of a 4096-op
// window displaces from a pinned view over 3·10⁵ points, which come back
// at the view's Unpin all at once (≈ 10⁴ SPaC nodes, 96 B each in 2-D).
const maxFreeList = 1 << 15

// Get returns an object put before, or a new zero one.
func (f *FreeList[T]) Get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k := len(f.free); k > 0 {
		x := f.free[k-1]
		f.free = f.free[:k-1]
		return x
	}
	return new(T)
}

// Put gives x to f; past the bound, it goes to the garbage collector. The
// caller asserts that nothing else reaches it.
func (f *FreeList[T]) Put(x *T) {
	f.mu.Lock()
	if len(f.free) < maxFreeList {
		f.free = append(f.free, x)
	}
	f.mu.Unlock()
}
