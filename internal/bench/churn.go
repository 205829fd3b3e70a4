package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// Churn benchmarks the read path PR 6 refactored: reader tail latency
// while a Collection is under continuous flush churn. A writer goroutine
// commits back-to-back full-population windows (every object moves from
// position set A to set B and back, so each flush is a maximal
// delete+insert diff against the index), while reader goroutines stream
// 10-NN-and-resolve queries and record per-query wall time. The same
// workload runs twice:
//
//	locked   — the pre-PR-6 read path: queries take the Collection read
//	           lock and wait out any in-flight BatchDiff;
//	snapshot — the epoch-pinned path: queries pin the published index
//	           version and wait at most for a window's table step.
//
// The interesting column is rd-p99-us: under churn the locked reader's
// tail is the flush duration, the snapshot reader's tail is a query or,
// for the one that arrives right behind a publish, the table step of a
// full-population window — the worst case for it, 25 times the window psid
// can form. mut-kops/s confirms the writer kept flushing at full rate in
// both modes (what the shorter tail costs the writer: the index paths a
// window copies over the shared SPaC-H tree, a whole second index apply
// over a family that keeps two copies — the table shows it).
//
// Quantiles are time-weighted (each sample weighted by its own duration)
// to correct for coordinated omission: a reader blocked behind a flush
// issues fewer samples exactly when latency is worst, so count-weighted
// quantiles would hide the stall the experiment exists to expose.
func Churn(cfg Config) {
	cfg = cfg.withDefaults()
	defer setThreads(cfg.Threads)()
	n := cfg.N
	side := workload.Uniform.Side(2)
	ptsA := workload.GenUniform(n, 2, side, cfg.Seed)
	ptsB := workload.GenUniform(n, 2, side, cfg.Seed+777)
	queries := workload.GenUniform(max(cfg.KNNQ, 1), 2, side, cfg.Seed+778)
	readers := min(4, runtime.NumCPU())
	windows := 4 * cfg.Reps

	fmt.Fprintf(cfg.Out, "Churn — reader latency under flush churn, n=%d objects, %d readers, %d full-move windows\n",
		n, readers, windows)
	fmt.Fprintf(cfg.Out, "(Collection[int] over SPaC-H; rd-p99 is the column PR 6 targets; '*' marks are not meaningful here)\n")

	tb := newTable("churn: reader tail latency vs flush path",
		"rd-p50-us", "rd-p99-us", "rd-kops/s", "mut-kops/s").
		setUnits("us", "us", "kops/s", "kops/s")
	for _, mode := range []string{"locked", "snapshot"} {
		mk := func() core.Index { return mkIndex("SPaC-H", 2, side) }
		opts := collection.Options{MaxBatch: n + 1} // only explicit Flush commits
		if mode == "snapshot" {
			opts.Snapshot = mk
		}
		p50, p99, rdKops, mutKops := runChurn(mk(), opts, ptsA, ptsB, queries, readers, windows)
		tb.add(mode, p50, p99, rdKops, mutKops)
	}
	tb.write(cfg.Out)
}

// runChurn preloads every object at its A position, then runs the churn
// window loop against readers and reports the merged reader latency
// quantiles (µs), reader throughput, and writer mutation throughput
// (kops/s, counting each Set of a window).
func runChurn(idx core.Index, opts collection.Options,
	ptsA, ptsB []geom.Point, queries []geom.Point, readers, windows int) (p50us, p99us, rdKops, mutKops float64) {
	c := collection.New[int](idx, opts)
	defer c.Close()
	for id, p := range ptsA {
		c.Set(id, p)
	}
	c.Flush()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	lats := make([][]float64, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var dst []collection.Entry[int]
			samples := lats[r][:0]
			for i := r; ; i++ {
				select {
				case <-stop:
					lats[r] = samples
					return
				default:
				}
				start := time.Now()
				dst = c.NearbyIDsAppend(queries[i%len(queries)], 10, dst[:0])
				samples = append(samples, float64(time.Since(start).Nanoseconds())/1e3)
			}
		}(r)
	}

	// 50% duty cycle: after each enqueue+flush window the writer idles for
	// as long as the window took. Continuous back-to-back flushing would
	// measure pure CPU contention (on few cores the readers barely get
	// scheduled at all, in either mode); churn with idle gaps is both the
	// realistic serving shape and the one where the read-path difference
	// is visible — clean-air samples fill the low quantiles and the flush
	// stalls surface at p99. Mutation throughput is reported over active
	// window time only.
	wall := time.Now()
	var active time.Duration
	for w := 0; w < windows; w++ {
		pts := ptsB
		if w%2 == 1 {
			pts = ptsA
		}
		start := time.Now()
		for id, p := range pts {
			c.Set(id, p)
		}
		c.Flush()
		d := time.Since(start)
		active += d
		time.Sleep(d)
	}
	wallS := time.Since(wall).Seconds()
	close(stop)
	wg.Wait()

	var all []float64
	for _, s := range lats {
		all = append(all, s...)
	}
	sort.Float64s(all)
	// Time-weighted quantile: the latency below which the readers spent
	// fraction f of their busy time (see the coordinated-omission note on
	// Churn). With every sample equally fast this matches the plain
	// count-weighted quantile.
	var total float64
	for _, v := range all {
		total += v
	}
	q := func(f float64) float64 {
		if len(all) == 0 {
			return nan
		}
		var cum float64
		for _, v := range all {
			cum += v
			if cum >= f*total {
				return v
			}
		}
		return all[len(all)-1]
	}
	mut := float64(windows * len(ptsA))
	return q(0.50), q(0.99), float64(len(all)) / wallS / 1e3, mut / active.Seconds() / 1e3
}
