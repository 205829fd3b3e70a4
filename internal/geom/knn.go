package geom

import "sync"

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
	k    int
	n    int
	dist []int64
	pts  []Point
}

// ResetK clears the heap and re-arms it for a (possibly different) k,
// growing the candidate arrays only when k exceeds their capacity.
func (h *KNNHeap) ResetK(k int) {
	h.n = 0
	h.k = k
	if cap(h.dist) < k {
		h.dist = make([]int64, k)
		h.pts = make([]Point, k)
	}
	h.dist = h.dist[:k]
	h.pts = h.pts[:k]
}

// knnHeapPool recycles heaps across queries. Heaps hold only value slices
// (no pointers into any index), so recycling one can never pin tree data.
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
	return h.dist[0]
}

// Push offers a candidate. It is a no-op when d2 is not better than Bound.
func (h *KNNHeap) Push(p Point, d2 int64) {
	if h.n < h.k {
		i := h.n
		h.dist[i], h.pts[i] = d2, p
		h.n++
		// Sift up.
		for i > 0 {
			parent := (i - 1) / 2
			if h.dist[parent] >= h.dist[i] {
				break
			}
			h.dist[parent], h.dist[i] = h.dist[i], h.dist[parent]
			h.pts[parent], h.pts[i] = h.pts[i], h.pts[parent]
			i = parent
		}
		return
	}
	if d2 >= h.dist[0] {
		return
	}
	// Replace the root (current worst) and sift down.
	h.dist[0], h.pts[0] = d2, p
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < h.n && h.dist[l] > h.dist[big] {
			big = l
		}
		if r < h.n && h.dist[r] > h.dist[big] {
			big = r
		}
		if big == i {
			return
		}
		h.dist[big], h.dist[i] = h.dist[i], h.dist[big]
		h.pts[big], h.pts[i] = h.pts[i], h.pts[big]
		i = big
	}
}

// Append copies the collected neighbors into dst ordered from nearest to
// farthest and returns the extended slice. The heap is consumed (emptied).
func (h *KNNHeap) Append(dst []Point) []Point {
	// Heap-sort in place: repeatedly extract the current maximum to the
	// back so the front ends up nearest-first.
	n := h.n
	base := len(dst)
	dst = append(dst, h.pts[:n]...)
	out := dst[base:]
	dists := h.dist[:n]
	for m := n; m > 1; m-- {
		// Move max (index 0) to position m-1.
		dists[0], dists[m-1] = dists[m-1], dists[0]
		out[0], out[m-1] = out[m-1], out[0]
		// Sift down within [0, m-1).
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < m-1 && dists[l] > dists[big] {
				big = l
			}
			if r < m-1 && dists[r] > dists[big] {
				big = r
			}
			if big == i {
				break
			}
			dists[big], dists[i] = dists[i], dists[big]
			out[big], out[i] = out[i], out[big]
			i = big
		}
	}
	h.n = 0
	return dst
}

// Dists returns the current squared distances in heap order. Test helper.
func (h *KNNHeap) Dists() []int64 { return h.dist[:h.n] }
