package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/internal/workload"

	psi "repro"
)

// Service benchmarks the network serving layer (-exp service): an
// in-process psid server on a loopback socket, driven by the psiload
// generator — N concurrent client connections issuing the default
// SET/NEARBY/WITHIN mover/query mix, cfg.N requests in total. Rows
// compare the Collection serving stacks (unsharded SPaC-H vs the
// recommended Sharded SPaC-H); columns are client-observed end-to-end
// numbers: total throughput in kops/s and p50/p99 request latency in
// microseconds.
//
// What to expect: unlike the in-process experiments, every request pays
// a socket round trip, so the columns measure the serving path — JSON
// framing, the goroutine-per-connection fan-in, and how well the
// Collection's coalescing turns concurrent SETs into the paper's
// parallel BatchDiff while queries keep being answered. The gap between
// the stacks is the shard fan-out win under that mix; both rows should
// sit far above what one mutation per index batch could serve.
func Service(cfg Config) {
	cfg = cfg.withDefaults()
	defer setThreads(cfg.Threads)()
	conns := 2 * runtime.GOMAXPROCS(0)
	objects := cfg.N / 10
	if objects < 100 {
		objects = 100
	}
	side := workload.Uniform.Side(2)
	universe := geom.UniverseBox(2, side)
	stacks := []struct {
		name string
		mk   func() core.Index
	}{
		{"SPaC-H", func() core.Index { return psi.NewSPaCH(2, universe) }},
		{"Sharded", func() core.Index { return psi.NewSharded(psi.NewSPaCH, 2, universe, 0) }},
	}

	fmt.Fprintf(cfg.Out, "Service — psid over loopback TCP, %d conns, %d objects, %d requests, %d cores\n",
		conns, objects, cfg.N, runtime.NumCPU())
	fmt.Fprintf(cfg.Out, "(kops/s higher is better, latency lower; '*' marks the column minimum and is only meaningful for latency)\n")
	tb := newTable("serving: Collection over unsharded vs sharded SPaC-H",
		"kops/s", "p50-us", "p99-us", "set-p99-us", "qry-p99-us").
		setUnits("kops/s", "us", "us", "us", "us")
	for _, st := range stacks {
		srv := service.New(st.mk(), service.Options{MaxBatch: 4096})
		if err := srv.Start("127.0.0.1:0", ""); err != nil {
			fmt.Fprintf(cfg.Out, "service: %v\n", err)
			return
		}
		rep, err := loadgen.RunLoad(loadgen.LoadOptions{
			Addr:     srv.Addr().String(),
			Conns:    conns,
			Objects:  objects,
			Side:     side,
			TotalOps: cfg.N,
			Seed:     cfg.Seed,
		})
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(shutdownCtx)
		cancel()
		if err != nil {
			fmt.Fprintf(cfg.Out, "service: %v\n", err)
			return
		}
		var setP99, qryP99 float64 = nan, nan
		for _, o := range rep.PerOp {
			switch o.Op {
			case service.OpSet:
				setP99 = float64(o.P99) / 1e3
			case service.OpNearby:
				qryP99 = float64(o.P99) / 1e3
			}
		}
		tb.add(st.name,
			rep.OpsPerSec/1e3,
			float64(rep.Total.P50)/1e3,
			float64(rep.Total.P99)/1e3,
			setP99,
			qryP99,
		)
	}
	tb.write(cfg.Out)
}
