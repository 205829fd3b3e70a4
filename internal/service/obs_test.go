package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sfc"
	"repro/internal/shard"
	"repro/internal/spactree"
)

// newObsStack builds the full observable serving stack the way cmd/psid
// does: one registry threaded through the shard layer and the server.
func newObsStack(t *testing.T, opts Options) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	idx := shard.New(shard.Options{
		Dims:     2,
		Universe: testUniverse(),
		Shards:   4,
		New:      func(dims int, u geom.Box) core.Index { return spactree.NewSPaC(sfc.Hilbert, dims, u) },
		Obs:      reg,
	})
	opts.Obs = reg
	if opts.FlushInterval == 0 {
		opts.FlushInterval = -1
	}
	s := New(idx, opts)
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, reg
}

func httpGet(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestMetricsEndpoint drives traffic through a fully observable stack
// and checks /metrics exposes the cross-layer series: per-command
// latency histograms, collection flush counters, per-shard load, epoch
// gauges — in valid, parseable Prometheus text.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := newObsStack(t, Options{})
	c := dialT(t, s)
	for i, p := range []([]int64){{10, 10}, {900, 900}, {50, 800}, {800, 60}} {
		if err := c.Set(string(rune('a'+i)), p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Nearby([]int64{500, 500}, 4); err != nil {
		t.Fatal(err)
	}

	code, ctype, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ctype)
	}
	samples, err := obs.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	checks := map[string]float64{
		`psi_query_duration_ns_count{op="SET"}`:          4,
		`psi_query_duration_ns_count{op="NEARBY"}`:       1,
		`psi_flush_total{layer="collection"}`:            1,
		`psi_flush_ops_netted_total{layer="collection"}`: 4,
		`psi_objects{layer="collection"}`:                4,
		`psi_collection_slots{layer="collection"}`:       4,
		`psi_collection_free_slots{layer="collection"}`:  0,
		// Present from the start; they move only when a read arrives while a
		// commit drains or runs its table step (collection tests hold one up).
		`psi_collection_table_wait_total{layer="collection"}`:    0,
		`psi_collection_table_wait_ns_total{layer="collection"}`: 0,
		`psi_epoch_retire_lag{layer="collection"}`:               0, // 1 only while a commit drains
		`psi_service_replies_total`:                              6,
		`psi_service_socket_writes_total`:                        6, // a client that waits for each reply gets one write per reply
		`psi_heap_live_bytes`:                                    0, // until the first GC cycle
		`psi_heap_goal_bytes`:                                    1,
	}
	for key, min := range checks {
		if v, ok := samples[key]; !ok || v < min {
			t.Errorf("%s = %v (present=%v), want >= %v", key, v, ok, min)
		}
	}
	// Snapshot reads: the epoch advanced past 0 and per-shard load
	// series exist for all four shards.
	if samples[`psi_epoch{layer="collection"}`] < 1 {
		t.Errorf("epoch = %v, want >= 1", samples[`psi_epoch{layer="collection"}`])
	}
	var shardSeries int
	for k := range samples {
		if strings.HasPrefix(k, `psi_shard_ops_total{shard="`) {
			shardSeries++
		}
	}
	if shardSeries != 4 {
		t.Errorf("found %d psi_shard_ops_total series, want 4", shardSeries)
	}
	if !strings.Contains(body, "# TYPE psi_query_duration_ns histogram") {
		t.Error("missing histogram TYPE line")
	}
}

// TestSharedIndexAccounting: over Sharded(SPaC-H) the two snapshot
// versions are one copy-on-write index, so a window reaches the shards
// once — psi_shard_ops_total advances by the logical rate, one insert per
// new object and a delete plus an insert per move, not twice that — and
// what the windows copied of the shared trees is on /metrics and in the
// cow block of /stats.
func TestSharedIndexAccounting(t *testing.T) {
	s, _ := newObsStack(t, Options{})
	c := dialT(t, s)
	shardOps := func() (sum float64) {
		_, _, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/metrics")
		samples, err := obs.ParseText(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range samples {
			if strings.HasPrefix(k, `psi_shard_ops_total{shard="`) {
				sum += v
			}
		}
		return sum
	}
	const n = 600 // past the leaf wrap in every shard
	set := func(off int64) {
		for i := 0; i < n; i++ {
			p := []int64{int64(i%25)*40 + off, int64(i/25)*40 + off}
			if err := c.Set(fmt.Sprintf("o%03d", i), p); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	set(1)
	if got := shardOps(); got != n {
		t.Fatalf("psi_shard_ops_total = %v after inserting %d objects, want the logical %d", got, n, n)
	}
	set(2) // every object moves: one delete and one insert each
	set(3)
	if got := shardOps(); got != 5*n {
		t.Fatalf("psi_shard_ops_total = %v after two windows of %d moves, want %d", got, n, 5*n)
	}

	_, _, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/metrics")
	samples, err := obs.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	nodes, bytes := samples[`psi_index_cow_nodes_total{layer="collection"}`], samples[`psi_index_cow_bytes_total{layer="collection"}`]
	if nodes < 1 || bytes < 1 {
		t.Fatalf("cow counters = %v nodes, %v bytes after windows over a shared index, want both counted", nodes, bytes)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cow == nil || float64(st.Cow.Nodes) != nodes || float64(st.Cow.Bytes) != bytes || st.Versions != 2 {
		t.Fatalf("STATS cow block = %+v over %d versions, want the /metrics counts (%v, %v) over 2", st.Cow, st.Versions, nodes, bytes)
	}
	if w, ns := samples[`psi_collection_table_wait_total{layer="collection"}`], samples[`psi_collection_table_wait_ns_total{layer="collection"}`]; float64(st.TableWaits) != w || float64(st.TableWaitNs) != ns {
		t.Fatalf("STATS table waits = %d (%d ns), /metrics has %v (%v ns)", st.TableWaits, st.TableWaitNs, w, ns)
	}

	// Locked reads keep one index: nothing is shared, nothing is reported.
	locked, _ := newObsStack(t, Options{DisableSnapshot: true})
	lc := dialT(t, locked)
	if err := lc.Set("a", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if lst, err := lc.Stats(); err != nil || lst.Cow != nil {
		t.Fatalf("locked-reads STATS cow block = %+v (err %v), want none", lst.Cow, err)
	}
	_, _, body = httpGet(t, "http://"+locked.HTTPAddr().String()+"/metrics")
	if samples, err = obs.ParseText(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	for k := range samples {
		if strings.HasPrefix(k, "psi_index_cow_") {
			t.Errorf("locked reads export %s", k)
		}
	}
}

// TestSlowQueryLog gates every command into the slow log (threshold
// 1ns) and checks a fanned-out NEARBY lands in the ring with its true
// cost: all four shards visited, every live object scanned as a
// candidate, and the pinned epoch.
func TestSlowQueryLog(t *testing.T) {
	s, _ := newObsStack(t, Options{SlowLog: time.Nanosecond})
	c := dialT(t, s)
	pts := []([]int64){{10, 10}, {900, 900}, {50, 800}, {800, 60}, {400, 400}, {600, 300}}
	for i, p := range pts {
		if err := c.Set(string(rune('a'+i)), p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// k >= objects: the KNN must expand every shard and scan everything.
	if _, err := c.Nearby([]int64{500, 500}, 100); err != nil {
		t.Fatal(err)
	}

	resp, err := c.Do(Request{Op: OpSlowlog})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Slow) == 0 {
		t.Fatalf("SLOWLOG = %+v, want entries", resp)
	}
	var nearby *obs.SlowQuery
	for i := range resp.Slow {
		if resp.Slow[i].Cmd == OpNearby {
			nearby = &resp.Slow[i]
			break
		}
	}
	if nearby == nil {
		t.Fatalf("no NEARBY entry in %+v", resp.Slow)
	}
	if nearby.Shards != 4 {
		t.Errorf("shards = %d, want 4 (k >= objects expands every shard)", nearby.Shards)
	}
	if nearby.Candidates != len(pts) {
		t.Errorf("candidates = %d, want %d", nearby.Candidates, len(pts))
	}
	if nearby.Epoch < 1 {
		t.Errorf("epoch = %d, want >= 1 (snapshot reads)", nearby.Epoch)
	}
	if nearby.DurNs <= 0 {
		t.Errorf("dur_ns = %d, want > 0", nearby.DurNs)
	}
	if !strings.Contains(nearby.Args, `"NEARBY"`) {
		t.Errorf("args = %q, want the raw request line", nearby.Args)
	}
	// Newest first.
	for i := 1; i < len(resp.Slow); i++ {
		if resp.Slow[i-1].Seq < resp.Slow[i].Seq {
			t.Fatalf("slow entries not newest-first: %d before %d",
				resp.Slow[i-1].Seq, resp.Slow[i].Seq)
		}
	}

	// The HTTP mirror serves the same ring.
	code, ctype, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/debug/slowlog")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/debug/slowlog = %d %q", code, ctype)
	}
	var entries []obs.SlowQuery
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("/debug/slowlog body %s: %v", body, err)
	}
	if len(entries) == 0 {
		t.Fatal("/debug/slowlog is empty")
	}
}

// TestSlowlogDisabled pins both disabled-mode surfaces: the SLOWLOG
// command errors with bad_request, and /debug/slowlog serves an empty
// array rather than failing.
func TestSlowlogDisabled(t *testing.T) {
	s, _ := newObsStack(t, Options{})
	c := dialT(t, s)
	resp, err := c.Do(Request{Op: OpSlowlog})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeBadRequest {
		t.Fatalf("SLOWLOG on a disabled log = %+v, want bad_request", resp)
	}
	code, _, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/debug/slowlog")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("/debug/slowlog = %d %q, want 200 []", code, body)
	}
}

// TestFlushTraceEndpoint checks /debug/flushtrace serves the recorded
// spans as JSON with per-stage fields, and serves [] before any flush.
func TestFlushTraceEndpoint(t *testing.T) {
	s, _ := newObsStack(t, Options{})
	base := "http://" + s.HTTPAddr().String()
	code, _, body := httpGet(t, base+"/debug/flushtrace")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("pre-flush /debug/flushtrace = %d %q, want 200 []", code, body)
	}

	c := dialT(t, s)
	if err := c.Set("a", []int64{10, 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, body = httpGet(t, base+"/debug/flushtrace")
	var spans []map[string]any
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/debug/flushtrace body %s: %v", body, err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans after a flush")
	}
	layers := map[string]bool{}
	for _, sp := range spans {
		layers[sp["layer"].(string)] = true
		for _, field := range []string{"seq", "apply_ns", "raw_ops", "netted_ops", "epoch"} {
			if _, ok := sp[field]; !ok {
				t.Fatalf("span %v missing %q", sp, field)
			}
		}
	}
	if !layers["collection"] || !layers["shard"] {
		t.Fatalf("span layers = %v, want collection and shard", layers)
	}
}
