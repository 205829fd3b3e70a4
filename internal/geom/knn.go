package geom

import (
	"slices"
	"sync"
)

// KNNHeap is a bounded max-heap of the k best (smallest squared distance)
// candidates seen so far during a k-nearest-neighbor search. Every index in
// the library threads one KNNHeap through its traversal; the current worst
// distance (Bound) is the pruning radius.
//
// The zero value is not usable; borrow one from the shared pool with
// GetKNNHeap/PutKNNHeap so that warm steady-state queries allocate
// nothing. The heap is intentionally allocation-free once armed so that
// query benchmarks measure tree traversal, not GC.
type KNNHeap struct {
	k, n int
	// cand holds (distance, point) pairs side by side, so a sift moves one
	// 32-byte element per level instead of touching two arrays.
	cand []knnCand
}

type knnCand struct {
	d int64
	p Point
}

// ResetK clears the heap and re-arms it for a (possibly different) k,
// growing the candidate array only when k exceeds its capacity.
func (h *KNNHeap) ResetK(k int) {
	h.n = 0
	h.k = k
	if cap(h.cand) < k {
		h.cand = make([]knnCand, k)
	}
	h.cand = h.cand[:k]
}

// knnHeapPool recycles heaps across queries. Heaps hold only values (no
// pointers into any index), so recycling one can never pin tree data.
var knnHeapPool = sync.Pool{New: func() any { return new(KNNHeap) }}

// GetKNNHeap returns an empty heap armed for k, reusing a pooled one when
// available. Pair with PutKNNHeap once the result has been consumed
// (typically right after Append). In the steady state this allocates
// nothing.
func GetKNNHeap(k int) *KNNHeap {
	h := knnHeapPool.Get().(*KNNHeap)
	h.ResetK(k)
	return h
}

// PutKNNHeap returns a heap to the pool. The caller must not use h after
// the call.
func PutKNNHeap(h *KNNHeap) {
	if h != nil {
		knnHeapPool.Put(h)
	}
}

// pointBufPool recycles []Point scratch buffers for query paths that need
// a temporary candidate list (the log-tree's multi-level KNN merge; the
// sharded fan-out keeps its own per-query scratch instead).
var pointBufPool = sync.Pool{New: func() any { return new([]Point) }}

// GetPointBuf returns an empty point buffer from the shared pool.
func GetPointBuf() *[]Point {
	b := pointBufPool.Get().(*[]Point)
	*b = (*b)[:0]
	return b
}

// PutPointBuf returns a buffer to the pool (the caller keeps no alias).
func PutPointBuf(b *[]Point) { pointBufPool.Put(b) }

// Len returns the number of candidates currently held.
func (h *KNNHeap) Len() int { return h.n }

// Full reports whether k candidates have been collected; until then Bound
// is unbounded and no pruning applies.
func (h *KNNHeap) Full() bool { return h.n == h.k }

// Bound returns the current pruning radius: the k-th best squared distance,
// or MaxInt64 while fewer than k candidates are known.
func (h *KNNHeap) Bound() int64 {
	if h.n < h.k {
		return int64(1<<63 - 1)
	}
	return h.cand[0].d
}

// Push offers a candidate. It is a no-op when d2 is not better than Bound.
// Both sifts carry a hole down (or up) the heap and write the new pair
// once, where the hole stops.
func (h *KNNHeap) Push(p Point, d2 int64) { h.push(d2, p[0], p[1], p[2]) }

// PushPacked is Push for a stored point, widened as the heap takes it. The
// coordinates reach the heap as scalars: a Point built on the stack and
// copied at once into Push's argument would stall that copy on the stores
// that just built it, on every leaf entry that beats the bound.
func PushPacked[S Packed](h *KNNHeap, s S, d2 int64) {
	var z int64
	if d := len(s) - 1; d == 2 {
		z = int64(s[d])
	}
	h.push(d2, int64(s[0]), int64(s[1]), z)
}

func (h *KNNHeap) push(d2, x, y, z int64) {
	c := h.cand
	if h.n < h.k {
		i := h.n
		h.n++
		for i > 0 {
			parent := (i - 1) / 2
			if c[parent].d >= d2 {
				break
			}
			c[i] = c[parent]
			i = parent
		}
		c[i] = knnCand{d2, Point{x, y, z}}
		return
	}
	if d2 >= c[0].d {
		return
	}
	siftDown(c[:h.n], knnCand{d2, Point{x, y, z}})
}

// siftDown places x at the root of the max-heap c, whose root is vacant,
// moving the larger child up until x fits.
func siftDown(c []knnCand, x knnCand) {
	n := len(c)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && c[r].d > c[l].d {
			l = r
		}
		if c[l].d <= x.d {
			break
		}
		c[i] = c[l]
		i = l
	}
	c[i] = x
}

// Append copies the collected neighbors into dst ordered from nearest to
// farthest and returns the extended slice. The heap is consumed (emptied).
func (h *KNNHeap) Append(dst []Point) []Point {
	// Heap-sort in place: repeatedly move the current maximum to the back
	// so the front ends up nearest-first.
	c := h.cand[:h.n]
	for m := len(c) - 1; m > 0; m-- {
		top := c[0]
		siftDown(c[:m], c[m])
		c[m] = top
	}
	dst = slices.Grow(dst, len(c))
	for _, x := range c {
		dst = append(dst, x.p)
	}
	h.n = 0
	return dst
}

// MinQueue is a binary min-heap on an int64 key: the frontier of a
// best-first search, each element keyed by its squared distance to the
// query. Push and Pop carry a hole along the heap and write the moved
// element once. A caller recycles the backing array across queries (a
// pooled queue allocates nothing warm) and clears the entries it dirtied
// before pooling it, since elements may point into an index.
type MinQueue[E any] []Keyed[E]

// Keyed is an element of a MinQueue and its key.
type Keyed[E any] struct {
	D int64
	E E
}

// Push adds e under key d and returns the grown queue.
func (q MinQueue[E]) Push(d int64, e E) MinQueue[E] {
	q = append(q, Keyed[E]{})
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].D <= d {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = Keyed[E]{d, e}
	return q
}

// Pop removes the element of least key, which it returns with the shrunk
// queue. The queue must not be empty.
func (q MinQueue[E]) Pop() (MinQueue[E], Keyed[E]) {
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && q[r].D < q[l].D {
			l = r
		}
		if q[l].D >= x.D {
			break
		}
		q[i] = q[l]
		i = l
	}
	if n > 0 {
		q[i] = x
	}
	return q, top
}
