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
	"repro/internal/obs"
)

// newObsStack builds the observable serving stack the way cmd/psid does:
// one SPaC-H tree behind a server whose registry every layer records into.
func newObsStack(t *testing.T, opts Options) *Server {
	t.Helper()
	return newObsStackOf(t, newTestIndex(), opts)
}

// newObsStackOf is newObsStack over idx.
func newObsStackOf(t *testing.T, idx core.Index, opts Options) *Server {
	t.Helper()
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
	return s
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
// latency histograms, collection flush counters, epoch gauges — in valid,
// parseable Prometheus text.
func TestMetricsEndpoint(t *testing.T) {
	s := newObsStack(t, Options{})
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
		// 0 where the build keeps the table on the heap.
		`psi_collection_table_mapped_bytes{layer="collection"}`: 0,
		// The empty entry, then four one-byte IDs of two bytes each.
		`psi_collection_table_id_bytes{layer="collection"}`:      9,
		`psi_collection_table_id_dead_bytes{layer="collection"}`: 0,
		// The window the four SETs grew, kept for the next ones.
		`psi_collection_pending_bytes{layer="collection"}`: 1,
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
	// Snapshot reads: the epoch advanced past 0.
	if samples[`psi_epoch{layer="collection"}`] < 1 {
		t.Errorf("epoch = %v, want >= 1", samples[`psi_epoch{layer="collection"}`])
	}
	if !strings.Contains(body, "# TYPE psi_query_duration_ns histogram") {
		t.Error("missing histogram TYPE line")
	}
}

// TestSharedIndexAccounting: over SPaC-H the two snapshot versions are
// one copy-on-write tree, and what the windows copied of it is on
// /metrics and in the cow block of /stats, beside the table-wait and ID
// arena counters, which the two surfaces must agree on too.
func TestSharedIndexAccounting(t *testing.T) {
	s := newObsStack(t, Options{})
	c := dialT(t, s)
	const n = 600 // past the leaf wrap
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
	set(2) // every object moves: one delete and one insert each
	set(3)

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
	if m := samples[`psi_collection_table_mapped_bytes{layer="collection"}`]; float64(st.TableMappedBytes) != m {
		t.Fatalf("STATS table_mapped_bytes = %d, /metrics has %v", st.TableMappedBytes, m)
	}
	if b, d := samples[`psi_collection_table_id_bytes{layer="collection"}`], samples[`psi_collection_table_id_dead_bytes{layer="collection"}`]; float64(st.TableIDBytes) != b || float64(st.TableIDDeadBytes) != d {
		t.Fatalf("STATS table_id_bytes = %d (%d dead), /metrics has %v (%v dead)", st.TableIDBytes, st.TableIDDeadBytes, b, d)
	}
	if b := samples[`psi_collection_pending_bytes{layer="collection"}`]; st.PendingBytes == 0 || float64(st.PendingBytes) != b {
		t.Fatalf("STATS pending_bytes = %d, /metrics has %v; want them equal and nonzero", st.PendingBytes, b)
	}

	// Locked reads — over a baseline — keep one index: nothing is shared,
	// nothing is reported.
	locked := newObsStackOf(t, core.NewBruteForce(2), Options{})
	lc := dialT(t, locked)
	if err := lc.Set("a", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if lst, err := lc.Stats(); err != nil || lst.Cow != nil {
		t.Fatalf("locked STATS cow block = %+v (err %v), want none", lst.Cow, err)
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
// 1ns) and checks a NEARBY over a four-shard Sharded lands in the ring
// with the cost the Collection saw: every live object a candidate, and
// the pinned epoch.
func TestSlowQueryLog(t *testing.T) {
	s := newObsStackOf(t, newTestSharded(), Options{SlowLog: time.Nanosecond})
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
	// k >= objects: every object is a hit.
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
	var entries []map[string]any
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("/debug/slowlog body %s: %v", body, err)
	}
	if len(entries) == 0 {
		t.Fatal("/debug/slowlog is empty")
	}
	for _, e := range entries {
		_, shards := e["shards"]
		if e["cmd"] == nil || e["candidates"] == nil || e["epoch"] == nil || shards {
			t.Errorf("/debug/slowlog entry %v, want cmd, candidates and epoch and no shards", e)
		}
	}
}

// TestSlowlogDisabled pins both disabled-mode surfaces: the SLOWLOG
// command errors with bad_request, and /debug/slowlog serves an empty
// array rather than failing.
func TestSlowlogDisabled(t *testing.T) {
	s := newObsStack(t, Options{})
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
	s := newObsStack(t, Options{})
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
	if !layers["collection"] || len(layers) != 1 {
		t.Fatalf("span layers = %v, want collection alone", layers)
	}
}
