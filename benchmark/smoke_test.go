package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the driver's view of the benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json and the tables in spec.go must describe the same
// benchmark.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the -seconds default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, declared, have []metricSpec) {
		if len(declared) != len(have) {
			t.Errorf("%s: %d metrics declared, %d in spec.go", kind, len(declared), len(have))
			return
		}
		for i := range have {
			if declared[i] != have[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go has %+v", kind, i, declared[i], have[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, b.EndToEnd...), b.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// printed runs one workload at toy size, prints it as the command would
// and returns the parsed last line of standard output.
func printed(t *testing.T, name string, cfg config) (metrics map[string]struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}, failed int) {
	t.Helper()
	res, err := runWorkload(name, cfg)
	if err == nil {
		err = res.check(cfg)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	res.print(cfg)
	w.Close()
	os.Stdout = stdout
	var last string
	sc := bufio.NewScanner(bytes.NewReader(<-out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(last)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, last)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("%s: result object lacks a key: %s", name, last)
	}
	if *line.Attempted < 1 || *line.Correct != (*line.Failed == 0) {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", name, *line.Correct, *line.Attempted, *line.Failed)
	}
	return line.Metrics, *line.Failed
}

// Every workload, at toy size with one-second windows, must print exactly
// the metrics BENCHMARK.json declares — the end-to-end ones untraced, the
// per-layer ones traced — each once, finite, with its declared unit, and
// must fail no operation.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns psid and runs every workload")
	}
	b := loadBenchmarkJSON(t)
	for _, traced := range []bool{false, true} {
		declared := b.EndToEnd
		if traced {
			declared = b.PerLayer
		}
		for _, w := range b.Workloads {
			metrics, failed := printed(t, w.Name, config{seed: 1, seconds: 1, trace: traced, toy: true})
			if failed != 0 {
				t.Errorf("%s (trace %t): %d operations failed", w.Name, traced, failed)
			}
			for _, d := range declared {
				m, ok := metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %t): declared metric %s is not printed", w.Name, traced, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s (trace %t): %s is not finite", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s (trace %t): %s has unit %q, declared %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				}
				delete(metrics, d.Name)
			}
			for name := range metrics {
				t.Errorf("%s (trace %t): undeclared metric %s is printed", w.Name, traced, name)
			}
		}
	}
}
