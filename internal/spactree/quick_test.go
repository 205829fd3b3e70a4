package spactree

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sfc"
	"repro/internal/workload"
)

// Property: randomized operation scripts keep every invariant (BST order,
// BB[α] balance, leaf wrap, honest sorted flags) and agree with the
// oracle — across modes, curves, dims and duplicate densities. This is
// the join/rotation machinery's main line of defence.
func TestQuickOpScripts(t *testing.T) {
	f := func(seed int64, total bool, hilbert bool, dense bool) bool {
		side := int64(1 << 16)
		if dense {
			side = 40
		}
		curve := sfc.Morton
		if hilbert {
			curve = sfc.Hilbert
		}
		mode := PartialOrder
		if total {
			mode = TotalOrder
		}
		opts := core.DefaultOptions(2, geom.UniverseBox(2, side))
		opts.LeafWrap = 40
		opts.Alpha = 0.2
		tr := New(curve, mode, opts)
		script := core.OpScript{
			Dims: 2, Side: side, Steps: 12, Seed: seed, MaxBatch: 300,
			Validate: tr.Validate,
		}
		if err := script.Run(tr); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitRun extracts exactly the duplicates of an entry from a
// tree on one side of it — the entries up to and including its copies, or
// from them on — and leaves the rest in order, checked against a direct
// scan.
func TestQuickSplitRun(t *testing.T) {
	f := func(seed int64, copies uint8) bool {
		side := int64(1 << 10)
		tr := NewSPaC(sfc.Hilbert, 2, geom.UniverseBox(2, side))
		pts := workload.GenUniform(500, 2, side, seed)
		dup := pts[0]
		for i := 0; i < int(copies)%40; i++ {
			pts = append(pts, dup)
		}
		in := in2(tr)
		e := in.encode(dup)
		all := in.encodeAndSort(pts)
		want := 0
		for _, p := range pts {
			if p == dup {
				want++
			}
		}
		for _, half := range [][]Entry[[2]int32]{all[:upperBound(all, e)], all[lowerBound(all, e):]} {
			in.root = in.buildSortedEnts(half)
			rest, count := in.splitRun(in.root, e)
			if count != want {
				t.Logf("count %d want %d", count, want)
				return false
			}
			in.root = rest
			if err := tr.Validate(); err != nil {
				t.Log(err)
				return false
			}
			got, _ := in.collectOrdered(rest, nil, true, true)
			if len(got)+count != len(half) {
				return false
			}
			for _, x := range got {
				if cmpEntry(x, e) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: join on arbitrary split points of a sorted entry set yields a
// tree with all invariants — the rotation cases get hit from many angles.
func TestQuickJoinBalance(t *testing.T) {
	side := int64(1 << 16)
	tr := NewSPaC(sfc.Hilbert, 2, geom.UniverseBox(2, side))
	in := in2(tr)
	base := in.encodeAndSort(workload.GenUniform(3000, 2, side, 9))
	f := func(cut uint16) bool {
		i := int(cut) % len(base)
		l := in.buildSortedEnts(base[:i:i])
		r := in.buildSortedEnts(base[i+1 : len(base) : len(base)])
		in.root = in.join(l, base[i], r)
		if err := tr.Validate(); err != nil {
			t.Log(err)
			return false
		}
		return tr.Size() == len(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Extremely lopsided joins: join a tiny tree with a huge one (both
// directions) — the deep-spine path of RightJoin/LeftJoin.
func TestLopsidedJoins(t *testing.T) {
	side := int64(1 << 16)
	tr := NewSPaC(sfc.Hilbert, 2, geom.UniverseBox(2, side))
	in := in2(tr)
	ents := in.encodeAndSort(workload.GenUniform(20000, 2, side, 11))
	for _, cut := range []int{1, 3, 41, len(ents) - 2, len(ents) - 42} {
		l := in.buildSortedEnts(ents[:cut:cut])
		r := in.buildSortedEnts(ents[cut+1 : len(ents) : len(ents)])
		in.root = in.join(l, ents[cut], r)
		if err := tr.Validate(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if tr.Size() != len(ents) {
			t.Fatalf("cut %d: size %d", cut, tr.Size())
		}
	}
}

// The largest universes the family accepts, [0, 2³¹−1]² and [0, 2²¹−1]³,
// keep their corners and edges exact through the int32 stored form — in
// Build, BatchDiff and every query, against BruteForce, for both modes
// and curves — and a universe one past them is refused at New. A leaf
// wrap of 4 puts most of the points in pivots and interior boxes.
func TestPrecisionBoundary(t *testing.T) {
	for _, dims := range []int{2, 3} {
		for _, curve := range []sfc.Curve{sfc.Morton, sfc.Hilbert} {
			for _, mode := range []Mode{PartialOrder, TotalOrder} {
				maxc := sfc.MaxCoord(curve, dims)
				opts := core.DefaultOptions(dims, geom.UniverseBox(dims, maxc))
				opts.LeafWrap, opts.Alpha = 4, 0.2
				tr := New(curve, mode, opts)
				if err := core.CheckBoundary(tr, opts.Universe, tr.Validate); err != nil {
					t.Fatalf("%s %dD: %v", tr.Name(), dims, err)
				}
				opts.Universe = geom.UniverseBox(dims, maxc+1)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s %dD: a universe of side %d was accepted", tr.Name(), dims, maxc+1)
						}
					}()
					New(curve, mode, opts)
				}()
			}
		}
	}
}
