package spactree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/sfc"
	"repro/internal/workload"
)

// The keyed sort must produce exactly the total order the tree is defined
// over — cmpEntry, the comparator sort it replaced — on every input shape
// that stresses a different part of it.

// seqCutoff of the keyed sort (parallel.seqSortThreshold): inputs below it
// are radix-sorted on one goroutine, inputs from it on are sample-split.
const sortSeqCutoff = 1 << 13

func sortInputs(n int) map[string][]geom.Point {
	rng := rand.New(rand.NewSource(int64(n)))
	dup := workload.GenUniform(n, 2, testSide, 3)
	for i := range dup {
		dup[i] = dup[rng.Intn(1+n/50)] // about 50 copies of each point
	}
	same := make([]geom.Point, n)
	for i := range same {
		same[i] = geom.Pt2(12345, 678)
	}
	// Varden walks inside a few tight clusters: nearly every code falls
	// between two neighbouring splitters, so one sample bucket takes
	// almost the whole input.
	return map[string][]geom.Point{
		"uniform":   workload.GenUniform(n, 2, testSide, 1),
		"varden":    workload.GenVarden(n, 2, testSide, 2),
		"duplicate": dup,
		"onepoint":  same,
	}
}

func TestSortEntriesMatchesComparatorSort(t *testing.T) {
	tr := NewSPaC(sfc.Hilbert, 2, universe())
	for _, n := range []int{0, 1, 41, 500, sortSeqCutoff - 1, sortSeqCutoff, sortSeqCutoff + 1, 5 * sortSeqCutoff} {
		for name, pts := range sortInputs(n) {
			ents := make([]Entry[[2]int32], n)
			for i, p := range pts {
				ents[i] = in2(tr).encode(p)
			}
			check := func(label string, ents []Entry[[2]int32]) {
				want := slices.Clone(ents)
				slices.SortFunc(want, cmpEntry[[2]int32])
				in2(tr).order.sort(ents, nil)
				if !slices.Equal(ents, want) {
					t.Fatalf("%s/%s n=%d: keyed sort differs from slices.SortFunc(cmpEntry[[2]int32])", name, label, n)
				}
			}
			check("codes", slices.Clone(ents))
			// All codes equal, points distinct: the order is the
			// tie-break's alone.
			for i := range ents {
				ents[i].Code = 42
			}
			check("allequal", ents)
		}
	}
}

// Build's keyed sort must leave the tree in the comparator's order: its
// in-order traversal is the comparator-sorted entry list.
func TestHybridBuildOrderMatchesComparatorSort(t *testing.T) {
	for _, curve := range []sfc.Curve{sfc.Hilbert, sfc.Morton} {
		for _, n := range []int{sortSeqCutoff - 1, sortSeqCutoff + 1, 5 * sortSeqCutoff} {
			for name, pts := range sortInputs(n) {
				tr := NewSPaC(curve, 2, universe())
				tr.Build(pts)
				got, sorted := in2(tr).collectOrdered(in2(tr).root, nil, true, true)
				want := make([]Entry[[2]int32], n)
				for i, p := range pts {
					want[i] = in2(tr).encode(p)
				}
				slices.SortFunc(want, cmpEntry[[2]int32])
				if !sorted || !slices.Equal(got, want) {
					t.Fatalf("%s/%s n=%d: built tree is not in cmpEntry order", curve, name, n)
				}
				validateOrFail(t, tr)
			}
		}
	}
}
