package parallel

import (
	"slices"
)

// seqSortThreshold is the size below which Sort and SortByKey run on the
// calling goroutine.
const seqSortThreshold = 1 << 13

// Sort sorts a in parallel under an arbitrary comparator with a sample
// sort: sample, pick pivots, classify every element to a bucket by binary
// search, Sieve-scatter into bucket order, then sort the buckets in
// parallel with the standard library. The sort is not stable. Data that
// is ordered by an integer key belongs to SortByKey, which never calls a
// comparator on elements whose keys differ.
func Sort[T any](a []T, cmp func(x, y T) int) {
	n := len(a)
	if n < seqSortThreshold || maxProcs() == 1 {
		slices.SortFunc(a, cmp)
		return
	}
	nbuckets := maxProcs() * 4
	if nbuckets > 256 {
		nbuckets = 256
	}
	// Oversample for balanced pivots.
	const oversample = 16
	sampleSize := nbuckets * oversample
	samples := make([]T, sampleSize)
	stride := n / sampleSize
	for i := 0; i < sampleSize; i++ {
		samples[i] = a[i*stride]
	}
	slices.SortFunc(samples, cmp)
	pivots := make([]T, nbuckets-1)
	for i := range pivots {
		pivots[i] = samples[(i+1)*oversample]
	}
	// If the sample is all-equal the input is massively duplicated;
	// classification would put everything in one bucket and recurse
	// uselessly, so just sort sequentially.
	if cmp(pivots[0], pivots[len(pivots)-1]) == 0 {
		slices.SortFunc(a, cmp)
		return
	}

	buf := make([]T, n)
	offsets := Sieve(a, buf, nbuckets, func(v T) int {
		// upper-bound binary search: bucket i receives values in
		// (pivot[i-1], pivot[i]].
		lo, hi := 0, len(pivots)
		for lo < hi {
			mid := (lo + hi) / 2
			if cmp(v, pivots[mid]) <= 0 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	})
	ForEach(nbuckets, 1, func(b int) {
		seg := buf[offsets[b]:offsets[b+1]]
		slices.SortFunc(seg, cmp)
		copy(a[offsets[b]:offsets[b+1]], seg)
	})
}
