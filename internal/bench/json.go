package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"time"
)

// JSON capture: psibench -json writes one machine-readable results
// document per run. Every table cell becomes one result record carrying
// its unit; the document header pins the configuration and the thread
// count so two runs are only compared like for like.

// JSONResult is one measured cell of an experiment table.
type JSONResult struct {
	Table  string  `json:"table"`
	Index  string  `json:"index"`
	Column string  `json:"column"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
}

// JSONConfig pins the knobs a run was measured under.
type JSONConfig struct {
	N       int   `json:"n"`
	KNNQ    int   `json:"knnq"`
	RangeQ  int   `json:"rangeq"`
	Reps    int   `json:"reps"`
	Seed    int64 `json:"seed"`
	Threads int   `json:"threads"`
}

// JSONDoc is the full psibench -json document.
type JSONDoc struct {
	Schema      string       `json:"schema"` // "psibench/v1"
	CreatedUnix int64        `json:"created_unix"`
	Experiment  string       `json:"experiment"`
	GoVersion   string       `json:"go_version"`
	Cores       int          `json:"cores"`
	GOMAXPROCS  int          `json:"gomaxprocs"` // what config.threads resolved to; fig7 alone sets its own, one per column
	Config      JSONConfig   `json:"config"`
	Results     []JSONResult `json:"results"`
}

var jsonSink struct {
	mu  sync.Mutex
	doc *JSONDoc
}

// StartJSON begins capturing all subsequently written tables into a
// results document for the given experiment id. Finish with WriteJSON.
func StartJSON(experiment string, cfg Config) {
	cfg = cfg.withDefaults()
	procs := cfg.Threads
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	jsonSink.mu.Lock()
	defer jsonSink.mu.Unlock()
	jsonSink.doc = &JSONDoc{
		Schema:      "psibench/v1",
		CreatedUnix: time.Now().Unix(),
		Experiment:  experiment,
		GoVersion:   runtime.Version(),
		Cores:       runtime.NumCPU(),
		GOMAXPROCS:  procs,
		Config: JSONConfig{
			N: cfg.N, KNNQ: cfg.KNNQ, RangeQ: cfg.RangeQ,
			Reps: cfg.Reps, Seed: cfg.Seed, Threads: cfg.Threads,
		},
		Results: []JSONResult{},
	}
}

// WriteJSON renders the captured document to w and stops capturing. It
// is an error-free no-op when StartJSON was never called.
func WriteJSON(w io.Writer) error {
	jsonSink.mu.Lock()
	doc := jsonSink.doc
	jsonSink.doc = nil
	jsonSink.mu.Unlock()
	if doc == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// emitJSON mirrors one rendered table into the JSON sink, if capturing.
func (tb *table) emitJSON() {
	jsonSink.mu.Lock()
	defer jsonSink.mu.Unlock()
	if jsonSink.doc == nil {
		return
	}
	for _, r := range tb.rows {
		for i, v := range r.vals {
			if isNaN(v) || i >= len(tb.columns) {
				continue
			}
			jsonSink.doc.Results = append(jsonSink.doc.Results, JSONResult{
				Table: tb.title, Index: r.label, Column: tb.columns[i],
				Value: v, Unit: tb.units[i],
			})
		}
	}
}
