package loadgen

import (
	"strings"
	"testing"

	"repro/internal/service"
)

// TestMetricsDelta pins the scrape-diff arithmetic: counter deltas,
// the netting ratio, and the numerically ordered per-shard spread.
func TestMetricsDelta(t *testing.T) {
	before := map[string]float64{
		`psi_flush_total{layer="collection"}`:               2,
		`psi_flush_ops_raw_total{layer="collection"}`:       100,
		`psi_flush_ops_netted_total{layer="collection"}`:    80,
		`psi_flush_ops_cancelled_total{layer="collection"}`: 20,
		`psi_shard_ops_total{shard="0"}`:                    10,
		`psi_shard_ops_total{shard="2"}`:                    10,
		`psi_shard_ops_total{shard="10"}`:                   10,
	}
	after := map[string]float64{
		`psi_flush_total{layer="collection"}`:               7,
		`psi_flush_ops_raw_total{layer="collection"}`:       300,
		`psi_flush_ops_netted_total{layer="collection"}`:    230,
		`psi_flush_ops_cancelled_total{layer="collection"}`: 70,
		"psi_slow_queries_total":                            3,
		`psi_shard_ops_total{shard="0"}`:                    60,
		`psi_shard_ops_total{shard="2"}`:                    40,
		`psi_shard_ops_total{shard="10"}`:                   90,
	}
	d := MetricsDelta(before, after)
	if d.Flushes != 5 || d.RawOps != 200 || d.NettedOps != 150 || d.Cancelled != 50 {
		t.Fatalf("deltas = %+v", d)
	}
	if d.NettedRatio != 0.75 {
		t.Fatalf("netted ratio = %v, want 0.75", d.NettedRatio)
	}
	if d.SlowQueries != 3 {
		t.Fatalf("slow queries = %v (absent in before must count from 0)", d.SlowQueries)
	}
	// Numeric shard order (string order would put 10 before 2) and
	// min/max over the deltas.
	want := []float64{50, 30, 80}
	if len(d.ShardOps) != 3 {
		t.Fatalf("shard ops = %v", d.ShardOps)
	}
	for i, v := range want {
		if d.ShardOps[i] != v {
			t.Fatalf("shard ops = %v, want %v (numeric shard order)", d.ShardOps, want)
		}
	}
	if d.ShardOpsMin != 30 || d.ShardOpsMax != 80 {
		t.Fatalf("spread min=%v max=%v, want 30/80", d.ShardOpsMin, d.ShardOpsMax)
	}
}

// TestScrapeMetricsLive scrapes a running server's /metrics end to end —
// the exact path psiload -scrape uses — and diffs around real traffic.
func TestScrapeMetricsLive(t *testing.T) {
	s := startStack(t, 0)
	url := "http://" + s.HTTPAddr().String() + "/metrics"
	before, err := ScrapeMetrics(url)
	if err != nil {
		t.Fatal(err)
	}
	c, err := service.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 8; i++ {
		if err := c.Set(string(rune('a'+i)), []int64{int64(i) * 100, int64(i) * 100}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := ScrapeMetrics(url)
	if err != nil {
		t.Fatal(err)
	}
	d := MetricsDelta(before, after)
	if d.Flushes < 1 || d.RawOps < 8 {
		t.Fatalf("server delta = %+v, want >= 1 flush and >= 8 raw ops", d)
	}
	if len(d.ShardOps) != 4 {
		t.Fatalf("shard spread = %v, want 4 shards", d.ShardOps)
	}
	var total float64
	for _, v := range d.ShardOps {
		total += v
	}
	if total < 8 {
		t.Fatalf("shard ops total = %v, want >= 8", total)
	}
	// The report section renders without panicking.
	var sb strings.Builder
	rep := &LoadReport{Server: d}
	rep.Format(&sb)
	if !strings.Contains(sb.String(), "server:") {
		t.Fatalf("report missing server section:\n%s", sb.String())
	}
}
