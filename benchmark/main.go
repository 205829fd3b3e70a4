// Command benchmark is the repository's performance benchmark: four
// workloads, two gated end-to-end metrics, the client-observed rates and
// latencies and a per-layer budget, described in
// BENCHMARK.json at the repository root and in README.md beside this
// file. It imports only the root package and drives the real psid binary
// over its flags and wire protocol.
//
//	go run ./benchmark -workload track-ingest -seed 1 -seconds 12 -trace 0
//	go run ./benchmark -seed 1               # all four workloads
//	go run ./benchmark -seed 1 -trace 1      # traced runs: per-layer metrics and span files
//	go run ./benchmark -seed 1 -repeat 5     # spread per metric and workload
//
// The last line of standard output of a single-workload run is one JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// config is what the command line selects for one run.
type config struct {
	seed    int64
	seconds float64 // length of the measured window
	trace   bool
	// toy shrinks populations and datasets to smoke-test size; only the
	// package's own test sets it.
	toy bool
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup is the discarded lead-in of every serving window: a quarter of
// the measured window, at most three seconds.
func (c config) warmup() time.Duration { return min(c.window()/4, 3*time.Second) }

// setups is how many times set-up is repeated for the setup_s median. A
// traced run reports no setup_s and sets up once.
func (c config) setups() int {
	if c.toy || c.trace {
		return 1
	}
	return 3
}

// metric is one reported value.
type metric struct {
	v float64
	n int // samples behind it
	// thinTail marks a percentile with fewer than minTail samples
	// beyond it; such a value is shown as suppressed.
	thinTail bool
}

// result collects one workload run.
type result struct {
	workload  string
	values    map[string]metric
	attempted int
	failed    int
	diag      []string // ungated diagnostics, printed above the metrics
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]metric{}}
}

func (r *result) set(name string, v float64, n int) { r.values[name] = metric{v: v, n: n} }

// setTail records a percentile; tailOK is false when fewer than minTail
// samples lie beyond it.
func (r *result) setTail(name string, v float64, n int, tailOK bool) {
	r.values[name] = metric{v: v, n: n, thinTail: !tailOK}
}

func (r *result) get(name string) float64 { return r.values[name].v }

// workloads in the order they run; BENCHMARK.json carries the why.
var workloadNames = []string{"batch-index", "track-interactive", "track-ingest", "track-durable"}

func runWorkload(name string, cfg config) (*result, error) {
	if name == "batch-index" {
		return runBatchIndex(cfg)
	}
	for _, spec := range trackSpecs {
		if spec.name == name {
			return runTrack(spec, cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// check validates a finished run against the metric table: every metric
// of the printed kind measured and finite.
func (r *result) check(cfg config) error {
	for _, s := range printedSpecs(cfg) {
		m, ok := r.values[s.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, s.Name)
		}
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			return fmt.Errorf("%s: metric %s is not finite", r.workload, s.Name)
		}
	}
	return nil
}

func printedSpecs(cfg config) []metricSpec {
	if cfg.trace {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable block and, last, the contract's JSON
// line.
func (r *result) print(cfg config) {
	fmt.Printf("== %s seed=%d window=%.0fs trace=%t\n", r.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, d := range r.diag {
		fmt.Printf("   %s\n", d)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, s := range printedSpecs(cfg) {
		r.printRow(s)
		out.Metrics[s.Name] = jsonMetric{Value: r.values[s.Name].v, Unit: s.Unit}
	}
	if !cfg.trace {
		// The client-observed rates and latencies are per-layer rows
		// (spec.go says why); an untraced run measures them all the same
		// and shows them to the reader, outside the result object.
		for _, s := range clientObserved() {
			r.printRow(s)
		}
	}
	fmt.Printf("fail_share %.6f (%d failed of %d attempted)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	line, _ := json.Marshal(out) // the struct holds only finite numbers: check ran first
	fmt.Printf("%s\n", line)
}

// printRow prints one metric for the reader.
func (r *result) printRow(s metricSpec) {
	m := r.values[s.Name]
	note := "  not gated"
	if s.Bound > 0 {
		note = fmt.Sprintf("  bound=%.2f", s.Bound)
	}
	if m.thinTail {
		note += fmt.Sprintf("  suppressed: fewer than %d samples beyond it", minTail)
	}
	fmt.Printf("%-34s %14.4f %-8s %-6s n=%d%s\n", s.Name, m.v, s.Unit, s.Better, m.n, note)
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1 makes the traced run: per-layer metrics, spans written to .bench_build/")
	repeat := flag.Int("repeat", 1, "run the set this many times (seeds seed, seed+1, ...) and print the spread of every metric and workload")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		runExitHooks()
		os.Exit(130)
	}()

	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	var runs [][]*result
	ok := true
	for rep := range *repeat {
		c := cfg
		c.seed += int64(rep)
		var set []*result
		for _, name := range names {
			res, err := runWorkload(name, c)
			if err == nil {
				err = res.check(c)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			res.print(c)
			ok = ok && res.failed == 0
			set = append(set, res)
		}
		runs = append(runs, set)
	}
	if *repeat > 1 {
		printSpread(runs, cfg)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: operations failed or answers were wrong (fail_share > 0)")
		return 1
	}
	return 0
}
