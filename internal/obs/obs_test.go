package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistSemantics(t *testing.T) {
	var h Hist
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Microsecond, 100 * time.Microsecond} {
		h.Record(d)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.5); p50 < time.Microsecond || p50 > 8*time.Microsecond {
		t.Fatalf("p50 = %v, want on the order of the small observations", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 100*time.Microsecond {
		t.Fatalf("p99 = %v, want >= the largest observation's bucket", p99)
	}
	if m := h.Mean(); m < 30*time.Microsecond || m > 40*time.Microsecond {
		t.Fatalf("mean = %v, want ~34us", m)
	}
	var empty Hist
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	// Clamping: zero and negative observations land in the first bucket.
	var clamp Hist
	clamp.Observe(0)
	clamp.Observe(-5)
	if clamp.Count() != 2 || clamp.Sum() != 2 {
		t.Fatalf("clamped count=%d sum=%d, want 2 and 2", clamp.Count(), clamp.Sum())
	}
}

// TestGoldenExposition pins the full text exposition for a registry with
// every family kind: names, HELP/TYPE lines, label rendering, histogram
// bucket expansion, and registration-order determinism.
func TestGoldenExposition(t *testing.T) {
	r := New()
	c := r.Counter("psi_test_total", "A test counter.", Label{Key: "layer", Value: "store"})
	c.Add(7)
	r.CounterFunc("psi_fn_total", "A function counter.", func() uint64 { return 42 })
	r.GaugeFunc("psi_gauge", "A gauge.", func() float64 { return 1.5 })
	h := r.Histogram("psi_lat_ns", "A latency histogram.", Label{Key: "op", Value: "SET"})
	h.Observe(1) // bucket 0
	h.Observe(5) // bucket 2 (4 <= 5 < 8)

	var want strings.Builder
	want.WriteString("# HELP psi_test_total A test counter.\n")
	want.WriteString("# TYPE psi_test_total counter\n")
	want.WriteString("psi_test_total{layer=\"store\"} 7\n")
	want.WriteString("# HELP psi_fn_total A function counter.\n")
	want.WriteString("# TYPE psi_fn_total counter\n")
	want.WriteString("psi_fn_total 42\n")
	want.WriteString("# HELP psi_gauge A gauge.\n")
	want.WriteString("# TYPE psi_gauge gauge\n")
	want.WriteString("psi_gauge 1.5\n")
	want.WriteString("# HELP psi_lat_ns A latency histogram.\n")
	want.WriteString("# TYPE psi_lat_ns histogram\n")
	cum := 0
	for i := 0; i < histBuckets-1; i++ {
		switch i {
		case 0, 2:
			cum++
		}
		fmt.Fprintf(&want, "psi_lat_ns_bucket{op=\"SET\",le=\"%d\"} %d\n", uint64(1)<<(i+1)-1, cum)
	}
	want.WriteString("psi_lat_ns_bucket{op=\"SET\",le=\"+Inf\"} 2\n")
	want.WriteString("psi_lat_ns_sum{op=\"SET\"} 6\n")
	want.WriteString("psi_lat_ns_count{op=\"SET\"} 2\n")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want.String() {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want.String())
	}
}

func TestLabelAndHelpEscaping(t *testing.T) {
	r := New()
	r.Counter("psi_esc_total", "help with \\ and\nnewline",
		Label{Key: "v", Value: "a\"b\\c\nd"})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP psi_esc_total help with \\ and\nnewline`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `psi_esc_total{v="a\"b\\c\nd"} 0`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		fn()
	}
	r := New()
	r.Counter("psi_dup_total", "x", Label{Key: "a", Value: "1"})
	mustPanic("duplicate series", func() {
		r.Counter("psi_dup_total", "x", Label{Key: "a", Value: "1"})
	})
	mustPanic("kind mismatch", func() {
		r.Histogram("psi_dup_total", "x")
	})
	mustPanic("bad metric name", func() { r.Counter("9bad", "x") })
	mustPanic("bad label name", func() {
		r.Counter("psi_ok_total", "x", Label{Key: "bad-key", Value: "v"})
	})
}

func TestParseTextRoundTrip(t *testing.T) {
	r := New()
	r.Counter("psi_a_total", "a", Label{Key: "layer", Value: "store"}).Add(3)
	r.GaugeFunc("psi_b", "b", func() float64 { return 2.25 })
	r.Histogram("psi_c_ns", "c").Observe(100)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m[`psi_a_total{layer="store"}`] != 3 {
		t.Fatalf("counter = %v", m[`psi_a_total{layer="store"}`])
	}
	if m["psi_b"] != 2.25 {
		t.Fatalf("gauge = %v", m["psi_b"])
	}
	if m["psi_c_ns_count"] != 1 || m["psi_c_ns_sum"] != 100 {
		t.Fatalf("hist count=%v sum=%v", m["psi_c_ns_count"], m["psi_c_ns_sum"])
	}
	if m[`psi_c_ns_bucket{le="+Inf"}`] != 1 {
		t.Fatalf("hist +Inf bucket = %v", m[`psi_c_ns_bucket{le="+Inf"}`])
	}
}

func TestFlushTraceRing(t *testing.T) {
	tr := NewFlushTrace(4)
	for i := 0; i < 6; i++ {
		tr.Record(FlushSpan{Layer: "store", RawOps: i})
	}
	if tr.Total() != 6 {
		t.Fatalf("total = %d", tr.Total())
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if sp.Seq != uint64(3+i) { // oldest surviving is seq 3
			t.Fatalf("span %d has seq %d, want %d (oldest first)", i, sp.Seq, 3+i)
		}
		if sp.RawOps != 2+i {
			t.Fatalf("span %d RawOps = %d, want %d", i, sp.RawOps, 2+i)
		}
	}
}

// TestFlushSpanStamp: each stamp times its stage from the one before —
// the first from the span's start — and a nil span records nothing.
func TestFlushSpanStamp(t *testing.T) {
	before := time.Now().UnixNano()
	sp := StartFlush("collection")
	if sp.Layer != "collection" || sp.Start < before || sp.Start > time.Now().UnixNano() {
		t.Fatalf("StartFlush: layer %q, start %d; want the layer, started now", sp.Layer, sp.Start)
	}
	time.Sleep(time.Millisecond)
	sp.Stamp(StageApply)
	apply := sp.Stages[StageApply]
	if apply < int64(time.Millisecond/2) {
		t.Fatalf("apply stage = %dns, want >= ~1ms", apply)
	}
	sp.Stamp(StagePublish)
	if publish := sp.Stages[StagePublish]; publish >= apply {
		t.Fatalf("publish stage = %dns, want it timed from the apply stamp, not the start (apply %dns)", publish, apply)
	}
	if sp.Dur() != time.Duration(sp.Stages[StageApply]+sp.Stages[StagePublish]) {
		t.Fatalf("Dur = %v, want the apply and publish stages", sp.Dur())
	}
	var none *FlushSpan
	none.Stamp(StageApply)
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3)
	long := bytes.Repeat([]byte("x"), SlowArgsCap+10)
	l.Record("NEARBY", []byte(`{"op":"NEARBY"}`), 5*time.Millisecond,
		QueryCost{Candidates: 123, Epoch: 9})
	l.Record("WITHIN", long, time.Millisecond, QueryCost{})
	for i := 0; i < 3; i++ {
		l.Record("SET", []byte("s"), time.Millisecond, QueryCost{})
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d", l.Total())
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d entries, want 3", len(got))
	}
	// Newest first.
	for i := range got {
		if got[i].Seq != uint64(5-i) {
			t.Fatalf("entry %d seq = %d, want %d", i, got[i].Seq, 5-i)
		}
		if got[i].Cmd != "SET" {
			t.Fatalf("entry %d cmd = %q", i, got[i].Cmd)
		}
	}
	// Truncation (overwritten here, so re-test on a fresh ring).
	l2 := NewSlowLog(2)
	l2.Record("WITHIN", long, time.Millisecond, QueryCost{Candidates: 2, Epoch: 3})
	e := l2.Snapshot()[0]
	if !e.Truncated || len(e.Args) != SlowArgsCap {
		t.Fatalf("truncated=%v len(args)=%d, want true and %d", e.Truncated, len(e.Args), SlowArgsCap)
	}
	if e.Candidates != 2 || e.Epoch != 3 {
		t.Fatalf("cost = %+v", e)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("psi_nil_total", "x")
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter should load 0")
	}
	h := r.Histogram("psi_nil_ns", "x")
	h.Record(time.Second)
	h.Observe(5)
	r.CounterFunc("psi_nil_fn", "x", func() uint64 { return 1 })
	r.GaugeFunc("psi_nil_g", "x", func() float64 { return 1 })
	r.RegisterHistogram("psi_nil_h", "x", nil)
	var tr *FlushTrace
	tr.Record(FlushSpan{})
	if tr.Total() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil trace should be empty")
	}
	var sl *SlowLog
	sl.Record("SET", nil, 0, QueryCost{})
	if sl.Total() != 0 || sl.Snapshot() != nil {
		t.Fatal("nil slowlog should be empty")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if r.FlushTrace() != nil {
		t.Fatal("nil registry should have nil trace")
	}
}

// TestRecordAllocFree pins design rule 1: every record-side operation is
// atomics into preallocated storage, zero allocations.
func TestRecordAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("psi_alloc_total", "x")
	h := r.Histogram("psi_alloc_ns", "x")
	tr := r.FlushTrace()
	sl := NewSlowLog(8)
	args := []byte(`{"op":"NEARBY","p":[1,2],"k":10}`)
	span := FlushSpan{Layer: "store", RawOps: 100, NettedOps: 90, Cancelled: 10}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Hist.Record", func() { h.Record(time.Microsecond) }},
		{"FlushTrace.Record", func() { tr.Record(span) }},
		{"SlowLog.Record", func() { sl.Record("NEARBY", args, time.Millisecond, QueryCost{Candidates: 2}) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, n)
		}
	}
}

// TestRegistryRace hammers every concurrent surface at once; run with
// -race (the CI does) to verify the lock-free recording discipline.
func TestRegistryRace(t *testing.T) {
	r := New()
	c := r.Counter("psi_race_total", "x")
	h := r.Histogram("psi_race_ns", "x")
	r.CounterFunc("psi_race_fn", "x", c.Load)
	tr := r.FlushTrace()
	sl := NewSlowLog(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(int64(i%1000 + 1))
				tr.Record(FlushSpan{Layer: "shard", RawOps: i})
				sl.Record("SET", []byte("x"), time.Duration(i), QueryCost{Candidates: g})
			}
		}(g)
	}
	deadline := time.After(50 * time.Millisecond)
	for {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			if c.Load() == 0 || tr.Total() == 0 || sl.Total() == 0 {
				t.Fatal("hammer recorded nothing")
			}
			return
		default:
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			tr.Snapshot()
			sl.Snapshot()
			h.Quantile(0.99)
		}
	}
}
