package bench

import (
	"runtime"
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

// JSONDoc is the full psibench -json document.
type JSONDoc struct {
	Schema      string       `json:"schema"` // "psibench/v1"
	CreatedUnix int64        `json:"created_unix"`
	Experiment  string       `json:"experiment"`
	GoVersion   string       `json:"go_version"`
	Cores       int          `json:"cores"`
	GOMAXPROCS  int          `json:"gomaxprocs"` // what config.threads resolved to; fig7 alone sets its own, one per column
	Config      Config       `json:"config"`
	Results     []JSONResult `json:"results"`
}

// newDoc is the empty document of a run of experiment under cfg.
func newDoc(experiment string, cfg Config) JSONDoc {
	procs := cfg.Threads
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	return JSONDoc{
		Schema:      "psibench/v1",
		CreatedUnix: time.Now().Unix(),
		Experiment:  experiment,
		GoVersion:   runtime.Version(),
		Cores:       runtime.NumCPU(),
		GOMAXPROCS:  procs,
		Config:      cfg,
		Results:     []JSONResult{},
	}
}

// results are the table's cells, one record each; N/A cells have none.
func (tb *table) results() []JSONResult {
	var rs []JSONResult
	for _, r := range tb.rows {
		for i, v := range r.vals {
			if !isNaN(v) {
				rs = append(rs, JSONResult{
					Table: tb.title, Index: r.label, Column: tb.columns[i],
					Value: v, Unit: tb.units[i],
				})
			}
		}
	}
	return rs
}
