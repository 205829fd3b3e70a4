package parallel

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDo(t *testing.T) {
	var a, b atomic.Bool
	Do(func() { a.Store(true) }, func() { b.Store(true) })
	if !a.Load() || !b.Load() {
		t.Fatal("Do did not run both tasks")
	}
}

func TestDoIfSequential(t *testing.T) {
	order := []int{}
	DoIf(false, func() { order = append(order, 1) }, func() { order = append(order, 2) })
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("sequential DoIf order = %v", order)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 10000, 100003} {
		hits := make([]atomic.Int32, n)
		For(n, 128, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, hits[i].Load())
			}
		}
	}
}

func TestBlocksPartition(t *testing.T) {
	n := 54321
	var total atomic.Int64
	Blocks(n, 1000, func(lo, hi int) {
		if lo >= hi || hi > n {
			t.Errorf("bad block [%d,%d)", lo, hi)
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != int64(n) {
		t.Fatalf("blocks covered %d of %d", total.Load(), n)
	}
}

func TestReduce(t *testing.T) {
	n := 100000
	got := Reduce(n, 1000, 0, func(i int) int { return i }, func(a, b int) int { return a + b })
	want := n * (n - 1) / 2
	if got != want {
		t.Fatalf("Reduce = %d, want %d", got, want)
	}
	// Non-commutative but associative op (string-ish concat via slices)
	// must combine blocks in index order.
	cat := Reduce(10, 3, []int{}, func(i int) []int { return []int{i} },
		func(a, b []int) []int { return append(append([]int{}, a...), b...) })
	for i, v := range cat {
		if v != i {
			t.Fatalf("Reduce order broken: %v", cat)
		}
	}
}

func TestSieveStable(t *testing.T) {
	type elem struct{ bucket, seq int }
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, 5000, 200000} {
		for _, buckets := range []int{1, 2, 16, 64} {
			src := make([]elem, n)
			for i := range src {
				src[i] = elem{bucket: rng.Intn(buckets), seq: i}
			}
			dst := make([]elem, n)
			off := Sieve(src, dst, buckets, func(e elem) int { return e.bucket })
			if len(off) != buckets+1 || off[buckets] != n {
				t.Fatalf("bad offsets %v", off)
			}
			// Each segment holds exactly its bucket, in original order.
			lastSeq := make([]int, buckets)
			for b := range lastSeq {
				lastSeq[b] = -1
			}
			for b := 0; b < buckets; b++ {
				if off[b] > off[b+1] {
					t.Fatalf("offsets not monotone: %v", off)
				}
				for _, e := range dst[off[b]:off[b+1]] {
					if e.bucket != b {
						t.Fatalf("bucket %d segment contains element of bucket %d", b, e.bucket)
					}
					if e.seq <= lastSeq[b] {
						t.Fatalf("sieve not stable in bucket %d", b)
					}
					lastSeq[b] = e.seq
				}
			}
		}
	}
}

func TestSieveSkewed(t *testing.T) {
	// All elements in one bucket — degenerate histogram.
	n := 50000
	src := make([]int, n)
	for i := range src {
		src[i] = i
	}
	dst := make([]int, n)
	off := Sieve(src, dst, 8, func(int) int { return 5 })
	if off[5] != 0 || off[6] != n {
		t.Fatalf("skewed offsets wrong: %v", off)
	}
	for i := range dst {
		if dst[i] != i {
			t.Fatal("skewed sieve lost stability")
		}
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 100, seqSortThreshold - 1, seqSortThreshold, 100000, 300001} {
		a := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(1 << 20)
		}
		want := slices.Clone(a)
		slices.Sort(want)
		Sort(a, cmpInt)
		if !slices.Equal(a, want) {
			t.Fatalf("n=%d: parallel sort mismatch", n)
		}
	}
}

func TestSortAdversarial(t *testing.T) {
	// Sorted, reverse-sorted, constant, and two-value inputs.
	n := 100000
	mk := func(f func(i int) int) []int {
		a := make([]int, n)
		for i := range a {
			a[i] = f(i)
		}
		return a
	}
	inputs := map[string][]int{
		"sorted":   mk(func(i int) int { return i }),
		"reverse":  mk(func(i int) int { return n - i }),
		"constant": mk(func(i int) int { return 42 }),
		"twoval":   mk(func(i int) int { return i & 1 }),
		"sawtooth": mk(func(i int) int { return i % 37 }),
	}
	for name, a := range inputs {
		want := slices.Clone(a)
		slices.Sort(want)
		Sort(a, cmpInt)
		if !slices.Equal(a, want) {
			t.Fatalf("%s: parallel sort mismatch", name)
		}
	}
}

func TestSortQuick(t *testing.T) {
	f := func(a []int16) bool {
		b := make([]int, len(a))
		for i, v := range a {
			b[i] = int(v)
		}
		want := slices.Clone(b)
		slices.Sort(want)
		Sort(b, cmpInt)
		return slices.Equal(b, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNumBlocks(t *testing.T) {
	if NumBlocks(0, 10) != 0 || NumBlocks(10, 10) != 1 || NumBlocks(11, 10) != 2 {
		t.Fatal("NumBlocks arithmetic wrong")
	}
}
