package parallel

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// keyed is the shape of HybridSort's ⟨code, id⟩ pair.
type keyed struct {
	key uint64
	id  int32
}

func keyOf(e keyed) uint64 { return e.key }
func cmpID(x, y keyed) int { return cmp.Compare(x.id, y.id) }
func cmpKeyed(x, y keyed) int {
	if c := cmp.Compare(x.key, y.key); c != 0 {
		return c
	}
	return cmpID(x, y)
}

// keyedInputs draws n elements per generator; ids are a permutation, so
// (key, id) is a total order and the expected output is unique.
var keyedInputs = map[string]func(rng *rand.Rand, i int) uint64{
	"uniform":  func(rng *rand.Rand, i int) uint64 { return rng.Uint64() >> 2 },
	"allequal": func(rng *rand.Rand, i int) uint64 { return 0xabcdef },
	"twoval":   func(rng *rand.Rand, i int) uint64 { return uint64(i&1) << 40 },
	"dups":     func(rng *rand.Rand, i int) uint64 { return uint64(rng.Intn(97)) << 33 },
	"lowbits":  func(rng *rand.Rand, i int) uint64 { return 1<<61 | uint64(rng.Intn(1<<11)) },
	"sorted":   func(rng *rand.Rand, i int) uint64 { return uint64(i) << 7 },
	"reverse":  func(rng *rand.Rand, i int) uint64 { return uint64(1<<30-i) << 3 },
	// One sample bucket takes nearly everything: a tight cluster and a
	// thin uniform background.
	"onebucket": func(rng *rand.Rand, i int) uint64 {
		if i%64 == 0 {
			return rng.Uint64() >> 2
		}
		return 1<<50 + uint64(rng.Intn(1<<20))
	},
	"maxkeys": func(rng *rand.Rand, i int) uint64 { return ^uint64(0) - uint64(rng.Intn(3)) },
}

func TestSortByKeyMatchesComparatorSort(t *testing.T) {
	sizes := []int{0, 1, 2, insertionLen, insertionLen + 1, ShortSortLen, ShortSortLen + 1, 5000,
		seqSortThreshold - 1, seqSortThreshold, seqSortThreshold + 1, 100_000, 300_001}
	for name, gen := range keyedInputs {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(n)))
			a := make([]keyed, n)
			for i, id := range rng.Perm(n) {
				a[i] = keyed{key: gen(rng, i), id: int32(id)}
			}
			want := slices.Clone(a)
			slices.SortFunc(want, cmpKeyed)
			SortByKey(a, keyOf, cmpID)
			if !slices.Equal(a, want) {
				t.Fatalf("%s n=%d: keyed sort differs from slices.SortFunc", name, n)
			}
		}
	}
}

// The comparator must only ever see elements of one equal-key run, and a
// nil comparator must still sort by key and lose nothing.
func TestSortByKeyTieContract(t *testing.T) {
	for name, gen := range keyedInputs {
		for _, n := range []int{100, 5000, 200_000} {
			rng := rand.New(rand.NewSource(7))
			a := make([]keyed, n)
			for i := range a {
				a[i] = keyed{key: gen(rng, i), id: int32(i)}
			}
			b := slices.Clone(a)
			SortByKey(a, keyOf, func(x, y keyed) int {
				if x.key != y.key {
					t.Errorf("%s n=%d: tie called across keys %#x and %#x", name, n, x.key, y.key)
				}
				return cmpID(x, y)
			})
			SortByKey(b, keyOf, nil)
			if !slices.IsSortedFunc(b, func(x, y keyed) int { return cmp.Compare(x.key, y.key) }) {
				t.Fatalf("%s n=%d: nil tie: keys out of order", name, n)
			}
			slices.SortFunc(b, cmpKeyed)
			if !slices.Equal(a, b) {
				t.Fatalf("%s n=%d: nil tie lost or duplicated elements", name, n)
			}
		}
	}
}

func TestSortByKeyLeafSizedNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]keyed, ShortSortLen)
	allocs := testing.AllocsPerRun(20, func() {
		for i := range a {
			a[i] = keyed{key: rng.Uint64(), id: int32(i)}
		}
		SortByKey(a, keyOf, cmpID)
	})
	if allocs != 0 {
		t.Fatalf("sorting %d elements allocated %.0f times, want 0", len(a), allocs)
	}
}

// SortByKeyWith sorts exactly as SortByKey does, nil tie included, on
// either side of the short-sort and the parallel thresholds, and with a
// buffer at least as long as the input a sort on the calling goroutine
// allocates nothing.
func TestSortByKeyWithBuffer(t *testing.T) {
	sizes := []int{0, 1, insertionLen + 1, ShortSortLen, ShortSortLen + 1, 5000,
		seqSortThreshold - 1, seqSortThreshold, seqSortThreshold + 1, 100_000}
	for name, gen := range keyedInputs {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(n)))
			a := make([]keyed, n)
			for i := range a {
				a[i] = keyed{key: gen(rng, i), id: int32(i)}
			}
			b := slices.Clone(a)
			SortByKey(a, keyOf, nil)
			SortByKeyWith(b, make([]keyed, n+3), keyOf, nil)
			if !slices.Equal(a, b) {
				t.Fatalf("%s n=%d: SortByKeyWith differs from SortByKey", name, n)
			}
		}
	}
	check := func(n int) {
		rng := rand.New(rand.NewSource(2))
		a, buf := make([]keyed, n), make([]keyed, n)
		allocs := testing.AllocsPerRun(5, func() {
			for i := range a {
				a[i] = keyed{key: rng.Uint64() >> 2, id: int32(i)}
			}
			SortByKeyWith(a, buf, keyOf, cmpID)
		})
		if allocs != 0 {
			t.Errorf("sorting %d elements with a buffer allocated %.0f times, want 0", n, allocs)
		}
		if !slices.IsSortedFunc(a, cmpKeyed) {
			t.Errorf("n=%d: not sorted", n)
		}
	}
	for _, n := range []int{ShortSortLen, ShortSortLen + 1, 5000, seqSortThreshold - 1} {
		check(n)
	}
	// Past the threshold the sort stays on the calling goroutine only on
	// one processor.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check(seqSortThreshold + 1)
}

// BenchmarkSortPairs is HybridSort's inner sort at construction scale:
// 10^6 ⟨code, id⟩ pairs with uniform 62-bit codes.
func BenchmarkSortPairs(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(5))
	src := make([]keyed, n)
	for i := range src {
		src[i] = keyed{key: rng.Uint64() >> 2, id: int32(i)}
	}
	a := make([]keyed, n)
	b.SetBytes(n)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(a, src)
		b.StartTimer()
		SortByKey(a, keyOf, cmpID)
	}
}
