package psi

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// allIndexNames is the full ByName surface the conformance suite sweeps.
var allIndexNames = []string{
	"P-Orth", "Zd-Tree", "SPaC-H", "SPaC-Z", "CPAM-H", "CPAM-Z",
	"Boost-R", "Pkd-Tree", "Log-Tree", "BHL-Tree", "BruteForce",
}

// TestDstAppendContract pins the query-buffer ownership rules every
// index must honor (ARCHITECTURE.md "Buffer ownership"): KNN and
// RangeList append to the caller's dst — preserving its prefix and
// reusing its backing array when capacity suffices — and the returned
// slice is the caller's to keep: the index retains no alias, so
// mutating the result must not perturb later queries. The serving
// layers' scratch reuse (pooled heaps, retained per-shard buffers,
// recycled flush batches) is only sound on top of these rules. The same
// sweep pins the input side: Build's slice comes back unchanged
// (Collection.Load builds from its live table's point array) with no alias
// kept to it, and so do the slices of BatchInsert, BatchDelete and BatchDiff.
func TestDstAppendContract(t *testing.T) {
	const n = 400
	const k = 10
	side := int64(1 << 20)
	universe := Universe2D(side)
	pts := workload.Generate(workload.Uniform, n, 2, side, 99)
	batch := workload.Generate(workload.Uniform, 64, 2, side, 100)
	q := Pt2(side/2, side/2)
	box := BoxOf(Pt2(side/4, side/4), Pt2(3*side/4, 3*side/4))
	sentinel := []Point{Pt2(-111, -1), Pt2(-222, -2), Pt2(-333, -3)}

	for _, name := range allIndexNames {
		t.Run(name, func(t *testing.T) {
			idx := ByName(name, 2, universe)
			if idx == nil {
				t.Fatalf("ByName(%q) = nil", name)
			}
			input := slices.Clone(pts)
			idx.Build(input)
			if !slices.Equal(input, pts) {
				t.Fatal("Build wrote its input slice")
			}
			// Had the index kept the slice, scribbling over it would change
			// the reference answers below.
			for i := range input {
				input[i] = Pt2(-7777777, -7777777)
			}
			if got := idx.RangeCount(universe); got != n {
				t.Fatalf("%d of %d points in the universe after mutating Build's input (index aliased it)", got, n)
			}

			for _, op := range []struct {
				label string
				query func(dst []Point) []Point
			}{
				{"KNN", func(dst []Point) []Point { return idx.KNN(q, k, dst) }},
				{"RangeList", func(dst []Point) []Point { return idx.RangeList(box, dst) }},
			} {
				t.Run(op.label, func(t *testing.T) {
					// Reference answer with a nil dst.
					ref := op.query(nil)
					if len(ref) == 0 {
						t.Fatalf("%s returned no points on built index", op.label)
					}

					// (1) Append semantics: the caller's prefix survives and
					// the result lands after it.
					dst := make([]Point, len(sentinel), len(sentinel)+len(ref)+8)
					copy(dst, sentinel)
					got := op.query(dst)
					if len(got) != len(sentinel)+len(ref) {
						t.Fatalf("%s: appended %d points, want %d", op.label, len(got)-len(sentinel), len(ref))
					}
					for i, want := range sentinel {
						if got[i] != want {
							t.Fatalf("%s: dst prefix clobbered at %d: %v", op.label, i, got[i])
						}
					}

					// (2) No reallocation when capacity suffices: the result
					// shares dst's backing array.
					if &got[0] != &dst[:1][0] {
						t.Fatalf("%s: result does not share dst's backing array despite sufficient capacity", op.label)
					}

					// (3) No aliasing into index internals: corrupting the
					// returned buffer must not change what the index stores
					// or answers.
					for i := range got {
						got[i] = Pt2(-9999999, -9999999)
					}
					again := op.query(nil)
					if err := pointsEqualAsMultiset(again, ref); err != nil {
						t.Fatalf("%s: query result changed after mutating the returned dst (index aliased the caller's buffer): %v",
							op.label, err)
					}
				})
			}
			if got := idx.Size(); got != n {
				t.Fatalf("size changed to %d after query-buffer mutations", got)
			}

			// The batch calls leave their inputs as they found them too.
			half := len(batch) / 2
			for _, call := range []struct {
				label    string
				ins, del []Point
			}{
				{"BatchInsert", batch, nil},
				{"BatchDelete", nil, batch[:half]},
				{"BatchDiff", batch[:half], batch[half:]},
			} {
				ins, del := slices.Clone(call.ins), slices.Clone(call.del)
				switch call.label {
				case "BatchInsert":
					idx.BatchInsert(ins)
				case "BatchDelete":
					idx.BatchDelete(del)
				default:
					idx.BatchDiff(ins, del)
				}
				if !slices.Equal(ins, call.ins) || !slices.Equal(del, call.del) {
					t.Fatalf("%s wrote its input slices", call.label)
				}
			}
			if got := idx.Size(); got != n+half {
				t.Fatalf("size %d after the batches, want %d", got, n+half)
			}
		})
	}
}

// pointsEqualAsMultiset compares two query answers ignoring order (ties
// and RangeList ordering are unspecified).
func pointsEqualAsMultiset(got, want []Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	count := make(map[geom.Point]int, len(want))
	for _, p := range want {
		count[p]++
	}
	for _, p := range got {
		if count[p] == 0 {
			return fmt.Errorf("unexpected point %v", p)
		}
		count[p]--
	}
	return nil
}
