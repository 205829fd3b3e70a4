package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/orthtree"
	"repro/internal/sfc"
	"repro/internal/spactree"
	"repro/internal/workload"
)

// ablations benchmarks the paper's design choices:
//
//	(a) P-Orth skeleton depth λ (how many tree levels one sieve round
//	    builds; the paper fixes λ=3 in 2D, §C);
//	(b) SPaC leaf wrap φ (paper: 40, §C);
//	(c) partial vs total leaf order (SPaC vs CPAM) under small-batch
//	    insertion — the paper's headline relaxation — including how many
//	    leaves actually go unsorted;
//	(d) SPaC vs CPAM construction on identical data (§4.1). Both sort
//	    ⟨code, point⟩ entries (a packed 2-D entry is the 16 bytes of
//	    HybridSort's ⟨code, id⟩ pair) and split them alike, so the two
//	    differ only in leaf layout: a CPAM leaf writes each point's code
//	    beside it.
func (s *Suite) ablations() {
	s.printf("Ablations — n=%d\n", s.cfg.N)
	sp := space{workload.Uniform, 2}
	modes := []spactree.Mode{spactree.PartialOrder, spactree.TotalOrder}

	tb := newTable("(a) P-Orth skeleton depth λ (2D uniform)", "build", "ins-0.1%")
	for lam := 1; lam <= 4; lam++ {
		opts := core.DefaultOptions(2, geom.UniverseBox(2, sp.side()))
		opts.SkeletonLevels = lam
		mk := func() core.Index { return orthtree.New(opts) }
		label := fmt.Sprintf("lambda=%d", lam)
		tb.add(label, s.at("AblationLambda/build/"+label, s.buildCell(sp, mk)),
			s.at("AblationLambda/ins-0.1%/"+label, s.runCell(incRun{false, sp, label, mk, 0.001}, 0, s.cfg.N)))
	}
	s.write(tb)

	tb = newTable("(b) SPaC-H leaf wrap φ (2D uniform)", "build", "ins-0.1%", "10NN-InD")
	for _, phi := range []int{16, 40, 128} {
		opts := spacOpts(sp.side())
		opts.LeafWrap = phi
		mk := func() core.Index { return spactree.New(sfc.Hilbert, spactree.PartialOrder, opts) }
		label := fmt.Sprintf("phi=%d", phi)
		tb.add(label, s.at("AblationLeafWrap/build/"+label, s.buildCell(sp, mk)),
			s.at("AblationLeafWrap/ins-0.1%/"+label, s.runCell(incRun{false, sp, label, mk, 0.001}, 0, s.cfg.N)),
			s.at("AblationLeafWrap/10NN-InD/"+label, s.queryCell(s.built(sp, label, mk, 1), s.stdQuery(sp, "10NN-InD"))))
	}
	s.write(tb)

	// (c) is the paper's core claim in isolation: identical trees except
	// for the in-leaf order relaxation, driven by small batches.
	tb = newTable("(c) partial vs total leaf order (2D uniform, 0.01% batches)",
		"ins-total", "10NN-InD", "unsortedLeaf%")
	for _, mode := range modes {
		mk := func() core.Index { return spactree.New(sfc.Hilbert, mode, spacOpts(sp.side())) }
		label := map[spactree.Mode]string{spactree.PartialOrder: "SPaC(part)", spactree.TotalOrder: "CPAM(tot)"}[mode]
		// The query reads the tree the timed insertion filled.
		r := incRun{false, sp, label, mk, 0.0001}
		insT := s.at("AblationLeafOrder/ins-total/"+label, s.runCell(r, 0, s.cfg.N))
		qT := s.at("AblationLeafOrder/10NN-InD/"+label, s.queryCell(s.upto(r, s.cfg.N), s.stdQuery(sp, "10NN-InD")))
		frac := nan
		if s.doc != nil {
			leaves, unsorted := s.state.(*spactree.Tree).LeafStats() // the tree 10NN-InD queried
			frac = 0
			if leaves > 0 {
				frac = 100 * float64(unsorted) / float64(leaves)
			}
		}
		tb.add(label, insT, qT, frac)
	}
	s.write(tb)

	tb = newTable("(d) construction, SPaC vs CPAM leaf layout (build seconds)", "uniform", "varden")
	for _, mode := range modes {
		label := map[spactree.Mode]string{spactree.PartialOrder: "points", spactree.TotalOrder: "codes"}[mode]
		var vals []float64
		for _, dist := range []workload.Dist{workload.Uniform, workload.Varden} {
			dsp := space{dist, 2}
			vals = append(vals, s.at(fmt.Sprintf("AblationHybridSort/%s/%s", dist, label),
				s.buildCell(dsp, func() core.Index { return spactree.New(sfc.Hilbert, mode, spacOpts(dsp.side())) })))
		}
		tb.add(label, vals...)
	}
	s.write(tb)
}

func spacOpts(side int64) core.Options {
	opts := core.DefaultOptions(2, geom.UniverseBox(2, side))
	opts.LeafWrap = 40
	opts.Alpha = 0.2
	return opts
}
