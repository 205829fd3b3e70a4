package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Scraping: psiload can fetch the server's /metrics endpoint before and
// after a load run and report the *server-side* deltas next to the
// client-observed numbers — how many flush windows the load triggered,
// how much of the traffic the coalescing log netted away, and how evenly
// the per-shard load spread. This closes the loop the paper's
// experiments leave open: client latency alone cannot tell whether a
// slowdown came from fan-out skew or from flush pressure; the scrape
// columns can.

// ScrapeMetrics fetches a Prometheus text exposition (a psid /metrics
// URL) and parses it into a flat sample map keyed like obs.ParseText:
// "name" or `name{label="v",...}`.
func ScrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// ServerDelta is the server's own accounting of one load run, computed
// as the difference of two /metrics scrapes (see MetricsDelta).
type ServerDelta struct {
	// Flushes / RawOps / NettedOps / Cancelled are the collection-layer
	// flush counters: windows committed, mutations entering them, index
	// mutations surviving netting, and ops cancelled by last-write-wins
	// coalescing.
	Flushes   float64
	RawOps    float64
	NettedOps float64
	Cancelled float64
	// NettedRatio is NettedOps/RawOps (1 = no coalescing win, lower is
	// more netting); 0 when no ops were flushed.
	NettedRatio float64
	// SlowQueries counts commands over the server's -slowlog threshold
	// during the run (0 when the log is disabled).
	SlowQueries float64
	// ShardOps is the per-shard batch-op spread (psi_shard_ops_total
	// deltas in shard order); Min/Max summarize the imbalance.
	ShardOps    []float64
	ShardOpsMin float64
	ShardOpsMax float64
}

// MetricsDelta computes the server-side load deltas between two scrapes
// of the same server. Counters absent from both scrapes stay zero, so a
// server without shard metrics simply reports an empty spread.
func MetricsDelta(before, after map[string]float64) *ServerDelta {
	diff := func(key string) float64 { return after[key] - before[key] }
	d := &ServerDelta{
		Flushes:     diff(`psi_flush_total{layer="collection"}`),
		RawOps:      diff(`psi_flush_ops_raw_total{layer="collection"}`),
		NettedOps:   diff(`psi_flush_ops_netted_total{layer="collection"}`),
		Cancelled:   diff(`psi_flush_ops_cancelled_total{layer="collection"}`),
		SlowQueries: diff("psi_slow_queries_total"),
	}
	if d.RawOps > 0 {
		d.NettedRatio = d.NettedOps / d.RawOps
	}
	const shardOps = `psi_shard_ops_total{shard="`
	var keys []string
	for k := range after {
		if strings.HasPrefix(k, shardOps) {
			keys = append(keys, k)
		}
	}
	// Shard labels are small integers; numeric order keeps the spread
	// aligned with shard IDs (string sort would put 10 before 2).
	sort.Slice(keys, func(i, j int) bool {
		return shardKey(keys[i]) < shardKey(keys[j])
	})
	for _, k := range keys {
		v := diff(k)
		d.ShardOps = append(d.ShardOps, v)
		if len(d.ShardOps) == 1 || v < d.ShardOpsMin {
			d.ShardOpsMin = v
		}
		if v > d.ShardOpsMax {
			d.ShardOpsMax = v
		}
	}
	return d
}

// shardKey extracts the numeric shard label from a
// `psi_shard_ops_total{shard="N"}` sample key (-1 if malformed).
func shardKey(k string) int {
	i := strings.Index(k, `shard="`)
	if i < 0 {
		return -1
	}
	n := 0
	seen := false
	for _, c := range k[i+len(`shard="`):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		seen = true
	}
	if !seen {
		return -1
	}
	return n
}

// formatServer appends the server-side section to a Format report.
func (d *ServerDelta) format(w io.Writer) {
	fmt.Fprintf(w, "server:  %.0f flushes, %.0f raw ops -> %.0f applied (netted ratio %.2f, %.0f cancelled)",
		d.Flushes, d.RawOps, d.NettedOps, d.NettedRatio, d.Cancelled)
	if d.SlowQueries > 0 {
		fmt.Fprintf(w, ", %.0f slow queries", d.SlowQueries)
	}
	fmt.Fprintln(w)
	if len(d.ShardOps) > 0 {
		fmt.Fprintf(w, "shards:  %d shards, batch ops min %.0f / max %.0f\n",
			len(d.ShardOps), d.ShardOpsMin, d.ShardOpsMax)
	}
}
