package parallel

// Sieve is the paper's Sieve(P, T) primitive (borrowed from the Pkd-tree
// work [43], §3.1): it stably reorders src into dst so that all elements of
// the same bucket become contiguous, and returns the bucket offsets
// (offsets[i] is the start of bucket i in dst; offsets[buckets] == len(src)).
//
// It is a stable parallel counting sort: per-block histograms, a
// column-major prefix sum over the (block x bucket) count matrix, and a
// parallel scatter. Stability is what lets the orth-tree and kd-tree
// builders recurse on slices of a single reordered array with no extra
// copies, which is the source of their I/O efficiency.
//
// src and dst must have equal length and must not alias. bucketOf must
// return a value in [0, buckets).
func Sieve[T any](src, dst []T, buckets int, bucketOf func(T) int) []int {
	return SieveWith(nil, src, dst, buckets, bucketOf)
}

// SieveScratch holds the internal buffers of one sieve invocation so
// steady-state callers (the sharded batch partitioner, most prominently)
// can re-run Sieve every flush without allocating. The zero value is
// ready; buffers grow to the high-water mark and are then reused.
//
// Ownership: the offsets slice returned by SieveWith aliases the scratch
// and is valid only until the next SieveWith call with the same scratch.
// A scratch must not be shared by concurrent sieves.
type SieveScratch struct {
	offsets []int
	ids     []uint16
	counts  []int
}

// Held is the input length the scratch sieves without growing.
func (sc *SieveScratch) Held() int { return cap(sc.ids) }

// grab returns scratch slices of the requested lengths, reusing capacity.
func (sc *SieveScratch) grab(nOffsets, nIDs, nCounts int) (offsets []int, ids []uint16, counts []int) {
	if cap(sc.offsets) < nOffsets {
		sc.offsets = make([]int, nOffsets)
	}
	sc.offsets = sc.offsets[:nOffsets]
	clear(sc.offsets)
	if cap(sc.ids) < nIDs {
		sc.ids = make([]uint16, nIDs)
	}
	sc.ids = sc.ids[:nIDs]
	if cap(sc.counts) < nCounts {
		sc.counts = make([]int, nCounts)
	}
	sc.counts = sc.counts[:nCounts]
	clear(sc.counts)
	return sc.offsets, sc.ids, sc.counts
}

// SieveWith is Sieve with caller-provided scratch buffers. A nil scratch
// allocates fresh buffers (equivalent to Sieve).
func SieveWith[T any](sc *SieveScratch, src, dst []T, buckets int, bucketOf func(T) int) []int {
	if sc == nil {
		sc = new(SieveScratch)
	}
	n := len(src)
	if n == 0 {
		offsets, _, _ := sc.grab(buckets+1, 0, 0)
		return offsets
	}
	// Choose a block size that keeps the count matrix small but gives
	// every worker several blocks for load balance.
	grain := sieveGrain(n, buckets)
	nb := NumBlocks(n, grain)

	if nb == 1 {
		// Sequential fast path: counts doubles as the running positions.
		offsets, ids, pos := sc.grab(buckets+1, n, buckets)
		counts := offsets[:buckets]
		for i, v := range src {
			b := bucketOf(v)
			ids[i] = uint16(b)
			counts[b]++
		}
		sum := 0
		for b := 0; b < buckets; b++ {
			c := counts[b]
			offsets[b] = sum
			pos[b] = sum
			sum += c
		}
		offsets[buckets] = sum
		for i, v := range src {
			b := ids[i]
			dst[pos[b]] = v
			pos[b]++
		}
		return offsets
	}

	// counts is row-major: counts[block*buckets+bucket].
	offsets, ids, counts := sc.grab(buckets+1, n, nb*buckets)
	Blocks(n, grain, func(lo, hi int) {
		row := counts[(lo/grain)*buckets : (lo/grain+1)*buckets]
		for i := lo; i < hi; i++ {
			b := bucketOf(src[i])
			ids[i] = uint16(b)
			row[b]++
		}
	})

	// Column-major exclusive scan: for bucket k, blocks in order. This
	// assigns every (block, bucket) cell its start position in dst and
	// fills the global bucket offsets.
	sum := 0
	for b := 0; b < buckets; b++ {
		offsets[b] = sum
		for blk := 0; blk < nb; blk++ {
			c := counts[blk*buckets+b]
			counts[blk*buckets+b] = sum
			sum += c
		}
	}
	offsets[buckets] = sum

	Blocks(n, grain, func(lo, hi int) {
		row := counts[(lo/grain)*buckets : (lo/grain+1)*buckets]
		for i := lo; i < hi; i++ {
			b := ids[i]
			dst[row[b]] = src[i]
			row[b]++
		}
	})
	return offsets
}

// sieveGrain picks the sieve block size: large enough that the per-block
// histogram (buckets ints) is amortized, small enough for load balance.
func sieveGrain(n, buckets int) int {
	g := n / (maxProcs() * 8)
	if g < 4*buckets {
		g = 4 * buckets
	}
	if g < 1024 {
		g = 1024
	}
	return g
}

// MaxSieveBuckets is the largest bucket count Sieve supports (bucket ids
// are staged in uint16 scratch).
const MaxSieveBuckets = 1 << 16
