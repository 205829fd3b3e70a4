package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/store"
	"repro/internal/window"
	"repro/internal/workload"
)

// Concurrent benchmarks the serving scenario no paper figure covers: many
// goroutines mutating and querying one index at once through the
// batch-coalescing psi.Store front-end. Two tables:
//
//	(a) mixed-workload throughput per index — W writer goroutines stream
//	    single-point inserts/deletes while R readers run 10-NN and range
//	    counts, all against one Store;
//	(b) the coalescing ablation — the same workload on SPaC-H while
//	    sweeping the flush threshold from 1 (every mutation is its own
//	    batch, i.e. plain lock-per-op) upward, showing how coalescing
//	    amortizes the paper's parallel batch-update machinery across
//	    callers.
//
// Columns are throughput in million ops/second (higher is better; the
// table's '*' minimum markers are not meaningful here).
func Concurrent(cfg Config) {
	cfg = cfg.withDefaults()
	defer setThreads(cfg.Threads)()
	cache := newCache()
	const writers, readers = 4, 4
	pts := cache.points(workload.Uniform, cfg.N, 2, cfg.Seed)
	side := workload.Uniform.Side(2)
	nMut := cfg.N / 4
	if nMut < 1 {
		nMut = 1
	}
	fresh := workload.GenUniform(nMut, 2, side, cfg.Seed+777)
	// Readers cycle these sets, so neither may be empty (KNNQ defaults to
	// N/100, which is 0 for tiny N).
	queries := workload.GenUniform(max(cfg.KNNQ, 1), 2, side, cfg.Seed+778)
	boxes := workload.RangeQueries(max(cfg.RangeQ, 1), 2, side, 1e-3, cfg.Seed+779)

	fmt.Fprintf(cfg.Out, "Concurrent — Store mixed workload, n=%d, %d writers + %d readers, %d ins + %d del\n",
		cfg.N, writers, readers, nMut, nMut)
	fmt.Fprintf(cfg.Out, "(columns are Mops/s; higher is better; '*' marks are not meaningful here)\n")

	tb := newTable(fmt.Sprintf("(a) throughput by index (MaxBatch=%d)", window.DefaultMaxBatch),
		"mut-Mops/s", "qry-Mops/s", "allocs/mut", "KB/mut").
		setUnits("Mops/s", "Mops/s", "allocs/op", "KB/op")
	for _, name := range parallelIndexes {
		idx := mkIndex(name, 2, side)
		idx.Build(pts)
		var mut, qry float64
		// Allocation pressure of the whole mixed workload (readers
		// included — they share the process), amortized per mutation.
		md := measureMem(func() {
			mut, qry = runStoreWorkload(idx, pts[:nMut], fresh, queries, boxes,
				writers, readers, store.Options{})
		})
		totalMut := float64(2 * nMut)
		tb.add(name, mut, qry, float64(md.allocs)/totalMut, float64(md.bytes)/totalMut/1024)
	}
	tb.write(cfg.Out)

	tb = newTable("(b) coalescing ablation (SPaC-H): flush threshold sweep",
		"mut-Mops/s", "qry-Mops/s").
		setUnits("Mops/s", "Mops/s")
	for _, maxBatch := range []int{1, 16, 256, 4096, 65536} {
		idx := mkIndex("SPaC-H", 2, side)
		idx.Build(pts)
		mut, qry := runStoreWorkload(idx, pts[:nMut], fresh, queries, boxes,
			writers, readers, store.Options{MaxBatch: maxBatch})
		tb.add(fmt.Sprintf("batch=%d", maxBatch), mut, qry)
	}
	tb.write(cfg.Out)
}

// runStoreWorkload wraps idx in a Store and runs the mixed workload: each
// writer streams an interleaved shard of single-point inserts (from fresh)
// and deletes (from doomed); readers alternate 10-NN and range-count
// queries until the writers finish. Returns mutation and query throughput
// in million ops/second over the shared wall-clock window.
func runStoreWorkload(idx core.Index, doomed, fresh []geom.Point,
	queries []geom.Point, boxes []geom.Box,
	writers, readers int, opts store.Options) (mutMops, qryMops float64) {
	s := store.New(idx, opts)
	var wgW, wgQ sync.WaitGroup
	var queriesDone atomic.Int64
	stop := make(chan struct{})
	start := time.Now()
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			for i := w; i < len(fresh); i += writers {
				s.Insert(fresh[i])
				if i < len(doomed) {
					s.Delete(doomed[i])
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wgQ.Add(1)
		go func(r int) {
			defer wgQ.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					s.KNN(queries[i%len(queries)], 10, nil)
				} else {
					s.RangeCount(boxes[i%len(boxes)])
				}
				queriesDone.Add(1)
			}
		}(r)
	}
	wgW.Wait()
	s.Close() // final flush: all mutations applied
	elapsed := time.Since(start).Seconds()
	close(stop)
	wgQ.Wait()
	totalMut := float64(len(fresh) + len(doomed))
	return totalMut / elapsed / 1e6, float64(queriesDone.Load()) / elapsed / 1e6
}
