// Command psibench regenerates the paper's tables and figures at a
// configurable scale. Each experiment prints timing tables to stdout;
// the mapping from experiment id to paper figure is in the "Experiments"
// section of README.md.
//
// Usage:
//
//	psibench -exp fig3 -n 1000000
//	psibench -exp all -n 100000 -reps 3
//
// The default n is 10^6 (the paper uses 10^9 on a 112-core machine; the
// comparison shapes are scale-stable — every experiment takes its sizes
// from the single -n flag).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

// experiments is every -exp id, in the order -exp all runs them. README's
// "Experiments" table lists the same ids (TestReadmeListsEveryExperiment).
var experiments = []struct {
	id  string
	run func(bench.Config)
}{
	{"fig3", bench.Fig3},
	{"fig4", bench.Fig4},
	{"fig5", bench.Fig5},
	{"fig6", bench.Fig6},
	{"fig7", bench.Fig7},
	{"fig8", bench.Fig8},
	{"fig9", bench.Fig9},
	{"fig10", bench.Fig10},
	{"ablation", bench.Ablations},
}

func main() {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	exp := flag.String("exp", "fig3", "experiment: "+strings.Join(ids, "|")+"|all")
	n := flag.Int("n", 1_000_000, "dataset size (paper: 1e9)")
	knnq := flag.Int("knnq", 0, "number of kNN queries (default n/100)")
	rangeq := flag.Int("rangeq", 200, "number of range queries")
	reps := flag.Int("reps", 1, "timed repetitions after warm-up (paper: 3)")
	seed := flag.Int64("seed", 42, "workload seed")
	threads := flag.Int("threads", 0, "GOMAXPROCS (0 = all cores)")
	jsonPath := flag.String("json", "", "also write a machine-readable results document (psibench/v1) to this JSON file")
	flag.Parse()

	cfg := bench.Config{
		N:       *n,
		KNNQ:    *knnq,
		RangeQ:  *rangeq,
		Reps:    *reps,
		Seed:    *seed,
		Threads: *threads,
		Out:     os.Stdout,
	}
	fmt.Printf("psibench: exp=%s n=%d reps=%d threads=%d/%d\n",
		*exp, *n, *reps, *threads, runtime.NumCPU())
	start := time.Now()
	if *jsonPath != "" {
		bench.StartJSON(*exp, cfg)
	}
	ran := false
	for _, e := range experiments {
		if *exp == e.id || *exp == "all" {
			e.run(cfg)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "psibench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psibench: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "psibench: writing JSON: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "psibench: closing JSON: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("\npsibench: done in %.1fs\n", time.Since(start).Seconds())
}
