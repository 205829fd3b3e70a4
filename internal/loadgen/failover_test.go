package loadgen

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/service"
	"repro/internal/sfc"
	"repro/internal/spactree"
)

// The process-spawning run itself is exercised by CI's failover chaos
// mix step (psiload against a built psid), and one promotion across
// real processes by cmd/psid's TestChaosPromote; these tests pin the
// measurement math and the report formats.

func TestFailoverQuantiles(t *testing.T) {
	win := func(ns ...int) []time.Duration {
		out := make([]time.Duration, len(ns))
		for i, n := range ns {
			out[i] = time.Duration(n) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{nil, 0.5, 0},
		{win(10), 0.5, 10 * time.Millisecond},
		{win(10), 0.99, 10 * time.Millisecond},
		{win(10, 20), 0.5, 10 * time.Millisecond},
		{win(10, 20), 0.99, 20 * time.Millisecond},
		{win(10, 20, 30, 40, 50), 0.5, 30 * time.Millisecond},
		{win(10, 20, 30, 40, 50), 0.99, 50 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := quantileDur(tc.sorted, tc.q); got != tc.want {
			t.Errorf("quantileDur(%v, %v) = %v, want %v", tc.sorted, tc.q, got, tc.want)
		}
	}
}

func TestFailoverReportCSV(t *testing.T) {
	rep := &FailoverReport{
		Nodes: 3, Handovers: 2, Writers: 4, Readers: 2,
		Elapsed:   3 * time.Second,
		FinalTerm: 2, Verified: 123,
		WriteOps: 1000, WriteErrs: 40, ReadOps: 2000, ReadErrs: 0,
		WriteWindows: []time.Duration{80 * time.Millisecond, 120 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("report CSV does not parse back: %v", err)
	}
	byKey := map[string]string{}
	for _, row := range rows[1:] {
		byKey[row[0]+"/"+row[1]] = row[2]
	}
	checks := map[string]string{
		"write_unavail_ms/count": "2",
		"write_unavail_ms/p50":   "80.00",
		"write_unavail_ms/p99":   "120.00",
		"write_unavail_ms/max":   "120.00",
		"read_unavail_ms/count":  "0",
		"read_unavail_ms/p50":    "0.00",
		"failover/handovers":     "2",
		"failover/final_term":    "2",
		"failover/verified":      "123",
		"write/ops":              "1000",
		"write/errors":           "40",
	}
	for key, want := range checks {
		if got := byKey[key]; got != want {
			t.Errorf("CSV row %s = %q, want %q", key, got, want)
		}
	}
	// No max row for an empty window set.
	if _, ok := byKey["read_unavail_ms/max"]; ok {
		t.Error("CSV emitted a max row for zero read windows")
	}

	var text bytes.Buffer
	rep.Format(&text)
	for _, want := range []string{
		"3 nodes, 2 handovers (final term 2)",
		"verified 123 acknowledged writes",
		"write unavailability: 2 windows",
		"p50=80.0ms",
		"read  unavailability: none (2000 ops, 0 errors)",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("report text missing %q:\n%s", want, text.String())
		}
	}
}

func TestFailoverWindowRecord(t *testing.T) {
	var st churnStats
	var win time.Time
	st.record(true, &win)  // success outside a window: nothing opens
	st.record(false, &win) // first error opens the window
	if win.IsZero() {
		t.Fatal("error did not open a window")
	}
	st.record(false, &win) // repeat errors extend, not re-open
	opened := win
	st.record(false, &win)
	if win != opened {
		t.Fatal("repeat error re-opened the window")
	}
	st.record(true, &win) // first success closes it
	if !win.IsZero() || len(st.windows) != 1 {
		t.Fatalf("window did not close exactly once: start=%v windows=%v", win, st.windows)
	}
	st.record(true, &win)
	if len(st.windows) != 1 {
		t.Fatal("success outside a window recorded a spurious window")
	}
	if st.ops != 6 || st.errs != 3 {
		t.Fatalf("tally ops=%d errs=%d, want 6/3", st.ops, st.errs)
	}
}

func TestFailoverOptionValidation(t *testing.T) {
	if _, err := RunFailover(FailoverOptions{BaseDir: t.TempDir()}); err == nil {
		t.Fatal("missing psid binary path was accepted")
	}
	if _, err := RunFailover(FailoverOptions{PsidBin: "psid"}); err == nil {
		t.Fatal("missing scratch dir was accepted")
	}
	if _, err := RunFailover(FailoverOptions{PsidBin: "psid", BaseDir: t.TempDir(), Nodes: 1}); err == nil {
		t.Fatal("a 1-node cluster was accepted")
	}
}

// TestVerifyFinal: the audit accepts exactly the acknowledged state and
// names what it misses — a moved object and an absent one both count.
func TestVerifyFinal(t *testing.T) {
	s := service.New(spactree.NewSPaC(sfc.Hilbert, 2, geom.UniverseBox(2, 1000)), service.Options{})
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	addr := s.Addr().String()
	err := failoverAdmin(addr, func(c *service.Client) error {
		if err := c.Set("a", []int64{1, 2}); err != nil {
			return err
		}
		return c.Set("b", []int64{3, 4})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyFinal(addr, map[string][]int64{"a": {1, 2}, "b": {3, 4}}); err != nil {
		t.Fatalf("exact state rejected: %v", err)
	}
	err = verifyFinal(addr, map[string][]int64{"a": {1, 2}, "b": {3, 5}, "c": {0, 0}})
	if err == nil || !strings.Contains(err.Error(), "2 of 3 acknowledged writes lost (1 missing, 1 wrong)") {
		t.Fatalf("moved b and absent c reported as: %v", err)
	}
}
