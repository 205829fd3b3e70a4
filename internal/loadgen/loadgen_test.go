package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sfc"
	"repro/internal/shard"
	"repro/internal/spactree"
)

const testSide = int64(1000)

// startStack runs the serving stack the way cmd/psid builds it — one
// registry threaded through a 4-shard SPaC-H index and the server, both
// listeners bound — and tears it down with the test. The background
// flusher is off: flushes come from MaxBatch and explicit FLUSHes only.
func startStack(t *testing.T, maxBatch int) *service.Server {
	t.Helper()
	reg := obs.New()
	u := geom.UniverseBox(2, testSide)
	idx := shard.New(shard.Options{
		Dims:     2,
		Universe: u,
		Shards:   4,
		New:      func(dims int, u geom.Box) core.Index { return spactree.NewSPaC(sfc.Hilbert, dims, u) },
		Obs:      reg,
	})
	s := service.New(idx, service.Options{MaxBatch: maxBatch, FlushInterval: -1, Obs: reg})
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

func TestRunLoad(t *testing.T) {
	s := startStack(t, 256)
	rep, err := RunLoad(LoadOptions{
		Addr:     s.Addr().String(),
		Conns:    4,
		Objects:  200,
		Side:     testSide,
		TotalOps: 2000,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 2000 || rep.Errors != 0 {
		t.Fatalf("report: %d ops, %d errors, want 2000/0", rep.Ops, rep.Errors)
	}
	if len(rep.PerOp) != 3 {
		t.Fatalf("per-op rows = %d, want SET/NEARBY/WITHIN", len(rep.PerOp))
	}
	if rep.Total.P99 < rep.Total.P50 || rep.Total.P50 <= 0 {
		t.Fatalf("quantiles inconsistent: p50=%v p99=%v", rep.Total.P50, rep.Total.P99)
	}
	var sb strings.Builder
	if err := rep.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	csvOut := sb.String()
	if !strings.Contains(csvOut, "op,count,errors,ops_per_sec") || !strings.Contains(csvOut, "total,") {
		t.Fatalf("CSV missing header or total row:\n%s", csvOut)
	}
	if lines := strings.Count(strings.TrimSpace(csvOut), "\n"); lines != 4 {
		t.Fatalf("CSV has %d rows, want header + 3 ops + total:\n%s", lines+1, csvOut)
	}
	// The load really reached the server.
	if st := s.Stats(); st.Ops[service.OpSet].Count == 0 || st.Ops[service.OpNearby].Count == 0 || st.Ops[service.OpWithin].Count == 0 {
		t.Fatalf("server saw no traffic: %+v", st.Ops)
	}
}

func TestRunLoadOptionHandling(t *testing.T) {
	// Invalid mixes are rejected before anything dials.
	for _, o := range []LoadOptions{
		{Addr: "never-dialed:1", SetFrac: 0.8, NearbyFrac: 0.4}, // sum > 1
		{Addr: "never-dialed:1", SetFrac: -0.1, NearbyFrac: 0.2},
		{Addr: "never-dialed:1", SetFrac: 0.2, NearbyFrac: -1},
	} {
		if _, err := RunLoad(o); err == nil {
			t.Fatalf("mix %v/%v accepted, want rejection", o.SetFrac, o.NearbyFrac)
		}
	}
	// An explicit zero fraction is literal, not "use the default".
	s := startStack(t, 64)
	rep, err := RunLoad(LoadOptions{
		Addr: s.Addr().String(), Conns: 2, Objects: 10, Side: testSide,
		TotalOps: 200, SetFrac: 0, NearbyFrac: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.PerOp {
		if o.Op != service.OpNearby {
			t.Fatalf("mix 0/1 issued %s ops: %+v", o.Op, rep.PerOp)
		}
	}
	// More connections than objects: clamped, and the full quota still
	// runs instead of idle connections silently dropping their share.
	rep, err = RunLoad(LoadOptions{
		Addr: s.Addr().String(), Conns: 8, Objects: 3, Side: testSide,
		TotalOps: 30, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conns != 3 || rep.Ops != 30 {
		t.Fatalf("conns=%d ops=%d, want the clamped 3 conns to run all 30 ops", rep.Conns, rep.Ops)
	}
}
