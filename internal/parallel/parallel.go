// Package parallel implements the fork-join substrate underneath every
// index in Ψ-Lib/Go. It mirrors the binary-forking model the paper analyses
// (§2.1): Do forks two tasks, For runs a parallel loop (simulated by
// logarithmic forking in theory; implemented with a dynamic chunk queue
// here), Sieve is the stable parallel counting sort the paper adopts
// from the Pkd-tree work [43].
// There are two sorts, both sample sorts in the spirit of IPS4o [9] that
// scatter with Sieve. SortByKey orders elements by a uint64 key — the
// space-filling-curve code of every SPaC, CPAM and Zd-tree build and batch
// — and compares nothing: splitters are searched branch-free, buckets are
// radix-sorted, and the caller's comparator runs only inside runs of equal
// keys. Sort takes an arbitrary comparator and sorts its buckets with the
// standard library; what is left for it are sorts that have no key, such
// as the workload generator's sort by coordinate.
//
// All primitives degrade gracefully to sequential execution below a grain
// size, so the library has sensible single-core behavior (the paper's
// 1-thread baselines in Fig. 7).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the sequential cutoff used when callers pass grain <= 0:
// ranges smaller than this run inline rather than being forked.
const DefaultGrain = 1024

// maxProcs returns the current parallelism budget.
func maxProcs() int { return runtime.GOMAXPROCS(0) }

// Do runs a and b as parallel tasks (the binary fork of the model in §2.1)
// and returns when both finish. a runs on the calling goroutine.
func Do(a, b func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b()
	}()
	a()
	wg.Wait()
}

// DoIf forks only when cond is true (the standard granularity-control
// pattern: recursion runs sequentially below its grain).
func DoIf(cond bool, a, b func()) {
	if cond && maxProcs() > 1 {
		Do(a, b)
	} else {
		a()
		b()
	}
}

// For runs f(i) for every i in [0, n) in parallel with the given grain
// (grain <= 0 selects DefaultGrain). Iterations are distributed dynamically
// in chunks so skewed per-iteration costs still balance — this stands in
// for the randomized work-stealing scheduler assumed by the paper.
func For(n, grain int, f func(i int)) {
	Blocks(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// ForEach is For with grain 1: every iteration may run on its own worker.
// Use it for small loops whose bodies are themselves large (e.g. one
// recursive subtree per bucket).
func ForEach(n, grain int, f func(i int)) {
	if grain < 1 {
		grain = 1
	}
	forBlocks(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// Blocks partitions [0, n) into contiguous chunks of roughly grain
// iterations and runs f(lo, hi) on each chunk in parallel. It is the
// blocked form of For for loop bodies that want to amortize per-chunk setup
// (histograms, local buffers).
func Blocks(n, grain int, f func(lo, hi int)) {
	if grain <= 0 {
		grain = DefaultGrain
	}
	forBlocks(n, grain, f)
}

func forBlocks(n, grain int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := maxProcs()
	if n <= grain || p == 1 {
		f(0, n)
		return
	}
	nchunks := (n + grain - 1) / grain
	workers := p
	if workers > nchunks {
		workers = nchunks
	}
	// Dynamic scheduling: workers pull chunk indices from an atomic
	// counter, which balances skewed workloads (Varden-style clustering
	// makes static splits badly unbalanced).
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				f(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// NumBlocks returns the number of chunks Blocks would use for (n, grain);
// callers that need per-chunk scratch space size it with this.
func NumBlocks(n, grain int) int {
	if grain <= 0 {
		grain = DefaultGrain
	}
	if n <= 0 {
		return 0
	}
	return (n + grain - 1) / grain
}

// Reduce combines f(i) over [0, n) with op, seeded by id. op must be
// associative; it need not be commutative, because the reduction follows
// the block structure and blocks are combined in index order.
func Reduce[T any](n, grain int, id T, f func(i int) T, op func(a, b T) T) T {
	if grain <= 0 {
		grain = DefaultGrain
	}
	nb := NumBlocks(n, grain)
	if nb <= 1 {
		acc := id
		for i := 0; i < n; i++ {
			acc = op(acc, f(i))
		}
		return acc
	}
	partial := make([]T, nb)
	Blocks(n, grain, func(lo, hi int) {
		acc := id
		for i := lo; i < hi; i++ {
			acc = op(acc, f(i))
		}
		partial[lo/grain] = acc
	})
	acc := id
	for _, v := range partial {
		acc = op(acc, v)
	}
	return acc
}
