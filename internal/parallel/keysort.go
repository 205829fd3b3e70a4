package parallel

import (
	"math/bits"
	"slices"
)

// Tuning of SortByKey.
const (
	// A radix pass reads wideBits of the key, or narrowBits when the run
	// is at most narrowLen long, so that its counters stay proportionate
	// to the run.
	wideBits   = 12
	narrowBits = 6
	narrowLen  = 1 << 11
	// insertionLen is the run length at and below which keys are sorted
	// by insertion.
	insertionLen = 24
	// ShortSortLen is the input length up to which the radix scratch
	// lives on the stack, so leaf-sized sorts do not allocate.
	ShortSortLen = 192
	// keySplitOversample is the sample drawn per splitter.
	keySplitOversample = 16
)

// SortShortByKey is SortByKey for an input of at most ShortSortLen
// elements, sorted on the calling goroutine with its scratch on the stack.
// Unlike SortByKey it does not move a to the heap, so a caller's scratch
// passed to it can stay on the stack.
func SortShortByKey[T any](a []T, key func(T) uint64, tie func(x, y T) int) {
	var scratch [ShortSortLen]T
	sortRun(a, scratch[:len(a)], true, key, tie)
}

// SortByKey sorts a by key ascending — the sort inside the paper's
// HybridSort (Alg. 3), which compares nothing but codes; the trees here
// move ⟨code, point⟩ entries through it. Large inputs are split on sampled keys with a branch-free
// search and scattered by Sieve; every bucket is then sorted by
// most-significant-digit radix passes over the bits in which its keys
// actually differ, and short runs by insertion.
//
// Tie-break contract: elements with equal keys form one run, and tie —
// a three-way comparator — is called only to order the elements inside
// such a run. It never sees elements with different keys, so it may
// assume equality of whatever the key encodes. A nil tie leaves equal-key
// elements in unspecified order. key must be pure; the sort is not stable.
func SortByKey[T any](a []T, key func(T) uint64, tie func(x, y T) int) {
	n := len(a)
	if n <= ShortSortLen {
		SortShortByKey(a, key, tie)
		return
	}
	buf := make([]T, n)
	if n < seqSortThreshold || maxProcs() == 1 {
		sortRun(a, buf, true, key, tie)
		return
	}

	// Splitters: nb-1 sampled keys, nb a power of two so the search is a
	// fixed number of halvings; buckets aim at a few thousand elements,
	// one radix pass away from insertion-sized runs.
	nb := min(1<<bits.Len(uint(max(n>>13, 4*maxProcs())-1)), 256)
	sample := make([]uint64, nb*keySplitOversample)
	stride := n / len(sample)
	for i := range sample {
		sample[i] = key(a[i*stride])
	}
	slices.Sort(sample)
	// Compacted in place: splitter i is read from beyond where it lands.
	split := sample[:nb-1]
	for i := range split {
		split[i] = sample[(i+1)*keySplitOversample]
	}

	// Bucket b receives the keys in (split[b-1], split[b]]: equal keys
	// share a bucket, so no run straddles two.
	offsets := Sieve(a, buf, nb, func(v T) int {
		k := key(v)
		b := 0
		for step := nb >> 1; step > 0; step >>= 1 {
			_, less := bits.Sub64(split[b+step-1], k, 0)
			b += step & -int(less)
		}
		return b
	})
	ForEach(nb, 1, func(b int) {
		lo, hi := offsets[b], offsets[b+1]
		sortRun(buf[lo:hi], a[lo:hi], false, key, tie)
	})
}

// sortRun sorts a, using b (same length) as scratch; the result lands in
// a if toA, else in b. It measures the key range first, so that the radix
// passes spend their digits on the span the keys actually occupy and not
// on a prefix the whole run shares.
func sortRun[T any](a, b []T, toA bool, key func(T) uint64, tie func(x, y T) int) {
	if len(a) == 0 {
		return
	}
	lo := key(a[0])
	hi := lo
	for _, v := range a[1:] {
		k := key(v)
		lo, hi = min(lo, k), max(hi, k)
	}
	radixSort(a, b, toA, lo, bits.Len64(hi-lo), key, tie)
}

// radixSort is sortRun for keys known to lie in [base, base+2^top).
func radixSort[T any](a, b []T, toA bool, base uint64, top int, key func(T) uint64, tie func(x, y T) int) {
	n := len(a)
	if n <= insertionLen {
		insertionSortByKey(a, key, tie)
		if !toA {
			copy(b, a)
		}
		return
	}
	if n <= narrowLen {
		var pos [1<<narrowBits + 1]int
		radixPass(a, b, toA, base, top, pos[:], key, tie)
		return
	}
	var pos [1<<wideBits + 1]int
	radixPass(a, b, toA, base, top, pos[:], key, tie)
}

// radixPass scatters a into b by the top digit of key-base and sorts
// every digit's run. pos is zeroed scratch of 2^w+1 counters, w the digit
// width.
func radixPass[T any](a, b []T, toA bool, base uint64, top int, pos []int, key func(T) uint64, tie func(x, y T) int) {
	w := bits.Len(uint(len(pos))) - 1
	mask := uint64(1)<<w - 1
	shift := max(top-w, 0)
	for {
		for _, v := range a {
			pos[(key(v)-base)>>shift&mask+1]++
		}
		d := (key(a[0]) - base) >> shift & mask
		if pos[d+1] < len(a) {
			break
		}
		// One digit holds the whole run (clustered keys): nothing to
		// scatter, read the next digit down.
		base += d << shift
		if shift == 0 {
			if tie != nil {
				slices.SortFunc(a, tie)
			}
			if !toA {
				copy(b, a)
			}
			return
		}
		clear(pos)
		shift = max(shift-w, 0)
	}
	for d := 1; d < len(pos); d++ {
		pos[d] += pos[d-1]
	}
	// pos[d] is the start of digit d and, once d's elements are placed,
	// its end.
	for _, v := range a {
		d := (key(v) - base) >> shift & mask
		b[pos[d]] = v
		pos[d]++
	}
	lo := 0
	for d, hi := range pos[:len(pos)-1] {
		if hi-lo > 1 {
			radixSort(b[lo:hi], a[lo:hi], !toA, base+uint64(d)<<shift, shift, key, tie)
		} else if hi > lo && toA {
			a[lo] = b[lo]
		}
		lo = hi
	}
}

// insertionSortByKey sorts a short run in place, reading each key once.
func insertionSortByKey[T any](a []T, key func(T) uint64, tie func(x, y T) int) {
	var ks [insertionLen]uint64
	for i, v := range a {
		ks[i] = key(v)
	}
	for i := 1; i < len(a); i++ {
		k, v := ks[i], a[i]
		j := i
		for j > 0 && (ks[j-1] > k || ks[j-1] == k && tie != nil && tie(a[j-1], v) > 0) {
			ks[j], a[j] = ks[j-1], a[j-1]
			j--
		}
		ks[j], a[j] = k, v
	}
}
