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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	// README's "Experiments" table lists the same ids (TestReadmeListsEveryExperiment).
	exp := flag.String("exp", "fig3", "experiment: "+strings.Join(bench.IDs(), "|")+"|all")
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
	doc, ok := bench.Run(*exp, cfg)
	if !ok {
		fmt.Fprintf(os.Stderr, "psibench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "psibench: writing JSON: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("\npsibench: done in %.1fs\n", time.Since(start).Seconds())
}
