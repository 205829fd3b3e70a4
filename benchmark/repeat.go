package main

import (
	"fmt"
	"slices"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is how the benchmark driver measures spread. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	data := slices.Clone(vs)
	slices.Sort(data)
	ld := len(data)
	const n = 4
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// printSpread is the -repeat report: per workload and metric the median,
// the quartiles, the interquartile distance and the full range as shares
// of the median, and a flag on every gated cell whose interquartile spread
// exceeds the metric's bound. A flagged cell is one the benchmark cannot
// resolve a regression on; README.md says what is done with one.
func printSpread(runs [][]*result, cfg config) {
	fmt.Printf("\n== spread over %d runs (seeds %d..%d)\n", len(runs), cfg.seed, cfg.seed+int64(len(runs))-1)
	fmt.Printf("%-18s %-34s %14s %14s %14s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
	specs := printedSpecs(cfg)
	if !cfg.trace {
		specs = append(slices.Clone(specs), clientObserved()...)
	}
	for w := range runs[0] {
		for _, s := range specs {
			var vs []float64
			for _, set := range runs {
				vs = append(vs, set[w].get(s.Name))
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			iqr, rng := 0.0, 0.0
			if med != 0 {
				iqr = (q3 - q1) / med
				rng = (slices.Max(vs) - slices.Min(vs)) / med
			}
			flag := ""
			if s.Bound > 0 && iqr > s.Bound {
				flag = "  BEYOND BOUND"
			}
			fmt.Printf("%-18s %-34s %14.4f %14.4f %14.4f %8.4f %8.4f%s\n",
				runs[0][w].workload, s.Name, med, q1, q3, iqr, rng, flag)
		}
	}
}
