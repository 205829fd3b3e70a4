package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	psi "repro"
)

// The batch-index workload is the paper's section 5 protocol on the raw
// indexes: a sliding window of steady size over a ring of points, batch
// inserts, deletes and fused diffs at one end and the other, then the
// query suite from concurrent goroutines. Nothing above psi.ByName runs.
// queryKinds is the query suite: 10-NN in and out of distribution,
// RangeCount, RangeList.
const queryKinds = 4

const (
	batchN       = 1_000_000 // steady tree size
	batchShare   = 1000      // one batch is 1/batchShare of the tree
	knnK         = 10
	rangeHits    = 100 // RangeCount/RangeList boxes hold about this many points of a uniform tree
	oracleChecks = 16  // seeded KNN and RangeCount answers compared with brute force, per cell
)

var batchTrees = []struct{ key, name string }{{"porth", "P-Orth"}, {"spach", "SPaC-H"}}
var batchDists = []psi.Dist{psi.Uniform, psi.Varden}

// dataset is one distribution's inputs, shared read-only by both trees.
type dataset struct {
	dist  psi.Dist
	ring  []psi.Point // 2n points; the live window slides over it
	knnIn []psi.Point // in-distribution query points
	knnOO []psi.Point // out-of-distribution query points
	boxes []psi.Box
}

func newDataset(dist psi.Dist, n int, seed int64) *dataset {
	d := &dataset{dist: dist, ring: psi.Generate(dist, 2*n, 2, side, seed)}
	// Varden emits a random walk; shuffled, every batch is a sample of
	// the whole distribution and not one cluster.
	rng := rand.New(rand.NewSource(seed ^ 0x72696e67))
	rng.Shuffle(len(d.ring), func(i, j int) { d.ring[i], d.ring[j] = d.ring[j], d.ring[i] })
	const nq = 1 << 14
	ood := psi.Varden
	if dist == psi.Varden {
		ood = psi.Uniform
	}
	d.knnIn = psi.Generate(dist, nq, 2, side, seed+0x10d)
	d.knnOO = psi.Generate(ood, nq, 2, side, seed+0xda7a)
	d.boxes = psi.RangeQueries(nq, 2, side, float64(rangeHits)/float64(n), seed)
	return d
}

// cell is one tree on one dataset.
type cell struct {
	tree string // metric key: porth, spach
	data *dataset
	idx  psi.Index
	head int // ring offset of the oldest live point
	n, b int

	mutPoints int
	mutTime   time.Duration
	mutLat    *recorder
	queries   int
	queryTime time.Duration
	queryLat  [][queryKinds]*recorder // per goroutine and query kind
}

// advance performs one round of the sliding window and records one
// latency sample per batch call: insert-then-delete, or every third round
// the same exchange as one fused BatchDiff.
func (c *cell) advance(round int) {
	ring := c.data.ring
	tail := (c.head + c.n) % len(ring)
	ins, del := ring[tail:tail+c.b], ring[c.head:c.head+c.b]
	if round%3 == 2 {
		t0 := time.Now()
		c.idx.BatchDiff(ins, del)
		c.mutLat.add(time.Since(t0))
	} else {
		t0 := time.Now()
		c.idx.BatchInsert(ins)
		t1 := time.Now()
		c.idx.BatchDelete(del)
		t2 := time.Now()
		c.mutLat.add(t1.Sub(t0))
		c.mutLat.add(t2.Sub(t1))
	}
	c.mutPoints += 2 * c.b
	c.head = (c.head + c.b) % len(ring)
}

func (c *cell) mutate(d time.Duration) {
	start := time.Now()
	for round := 0; time.Since(start) < d; round++ {
		c.advance(round)
	}
	c.mutTime += time.Since(start)
}

// query runs the query suite from g goroutines for d; one query is one
// sample. Each goroutine cycles through 10-NN in and out of distribution,
// RangeCount and RangeList.
func (c *cell) query(g int, d time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	for w := range g {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &c.queryLat[w]
			var pts []psi.Point
			sink := 0
			for i := w * 4099; time.Since(start) < d; i++ {
				q := (i / queryKinds) % len(c.data.knnIn)
				kind := i % queryKinds
				t0 := time.Now()
				switch kind {
				case 0:
					pts = c.idx.KNN(c.data.knnIn[q], knnK, pts[:0])
				case 1:
					pts = c.idx.KNN(c.data.knnOO[q], knnK, pts[:0])
				case 2:
					sink += c.idx.RangeCount(c.data.boxes[q])
				case 3:
					pts = c.idx.RangeList(c.data.boxes[q], pts[:0])
				}
				rec[kind].add(time.Since(t0))
			}
			_ = sink
		}()
	}
	wg.Wait()
	c.queryTime += time.Since(start)
	c.queries = 0
	for _, rec := range c.queryLat {
		for _, r := range rec {
			c.queries += len(r.ns)
		}
	}
}

// live returns the points the tree must hold now.
func (c *cell) live() []psi.Point {
	ring := c.data.ring
	if c.head+c.n <= len(ring) {
		return ring[c.head : c.head+c.n]
	}
	return append(slices.Clone(ring[c.head:]), ring[:c.head+c.n-len(ring)]...)
}

func dist2(a, b psi.Point) int64 {
	dx, dy := a[0]-b[0], a[1]-b[1]
	return dx*dx + dy*dy
}

// verify checks the tree after the churn: its size, and a seeded sample
// of KNN and RangeCount answers against the brute-force index over the
// points that must be live. It returns checks made and checks missed.
func (c *cell) verify(seed int64) (attempted, missed int) {
	attempted++
	if c.idx.Size() != c.n {
		missed++
	}
	ref := psi.NewBruteForce(2)
	ref.Build(c.live())
	rng := rand.New(rand.NewSource(seed ^ 0x6f7261636c65))
	var got, want []psi.Point
	for range oracleChecks {
		q := c.data.knnIn[rng.Intn(len(c.data.knnIn))]
		got, want = c.idx.KNN(q, knnK, got[:0]), ref.KNN(q, knnK, want[:0])
		attempted++
		// Ties at equal distance may be broken either way; the sorted
		// distance lists must agree.
		if !slices.EqualFunc(got, want, func(a, b psi.Point) bool { return dist2(a, q) == dist2(b, q) }) {
			missed++
		}
		box := c.data.boxes[rng.Intn(len(c.data.boxes))]
		attempted++
		if c.idx.RangeCount(box) != ref.RangeCount(box) {
			missed++
		}
	}
	return attempted, missed
}

func runBatchIndex(cfg config) (*result, error) {
	n := batchN
	if cfg.toy {
		n = 20_000
	}
	b := n / batchShare
	u := psi.Universe2D(side)
	g := conns()
	res := newResult("batch-index")
	// rss_mb is this process's own high-water mark; under -repeat an
	// earlier run must not lend it its peak.
	resetPeakRSS()
	var tr *tracer
	var spans *spanBuf
	if cfg.trace {
		tr = newTracer(0, 0)
		spans = tr.extra(1 << 18)
	}

	// Set-up: generate the rings and Build every cell. Repeated, with
	// the median reported; the last set of cells is the one measured.
	var cells []*cell
	var setups []float64
	var genTime time.Duration
	for range cfg.setups() {
		// Collect the previous repetition's trees first, so that peak
		// memory is that of one set of cells and not of GC timing.
		cells = nil
		runtime.GC()
		t0 := time.Now()
		for di, dist := range batchDists {
			g0 := time.Now()
			data := newDataset(dist, n, cfg.seed+int64(di)<<32)
			genTime = time.Since(g0)
			for _, t := range batchTrees {
				idx := psi.ByName(t.name, 2, u)
				if spans != nil {
					idx = timed(idx, "index", spans)
				}
				idx.Build(data.ring[:n])
				c := &cell{tree: t.key, data: data, idx: idx, n: n, b: b, mutLat: newRecorder(1 << 14)}
				for range g {
					var rec [queryKinds]*recorder
					for k := range rec {
						rec[k] = newRecorder(1 << 19)
					}
					c.queryLat = append(c.queryLat, rec)
				}
				cells = append(cells, c)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups), len(setups))

	// Each cell gets an equal share of the window: two thirds batch
	// updates (one call is one sample, and a call takes milliseconds),
	// one third queries.
	share := cfg.window() / time.Duration(len(cells))
	var probe *memProbe
	if cfg.trace {
		probe = startMemProbe()
	}
	cpu0 := selfCPU()
	var busy0 int64
	if spans != nil {
		busy0 = spans.busy.Load()
	}
	for _, c := range cells {
		c.mutate(share * 2 / 3)
		c.query(g, share/3)
	}
	cpu := selfCPU() - cpu0
	if probe != nil {
		res.set("client.mem_probe_ns", probe.finish(), len(probe.samples))
	}
	var busy time.Duration
	if spans != nil {
		busy = time.Duration(spans.busy.Load() - busy0)
	}

	// A metric is computed per cell — query percentiles per cell and
	// query kind — and pooled by geometric mean: pooling the samples
	// instead would put the median of a many-mode mixture on the edge
	// between two modes. The exception is mut_p99_us: a cell has too few
	// batch calls for a p99, so it is taken over all calls of the run,
	// where the slowest cell's tail decides it.
	var mk, qk, m50, q50, q99 []float64
	var calls []*recorder
	qn, ops := 0, 0
	qtail := true
	for _, c := range cells {
		ms := merged(c.mutLat)
		calls = append(calls, c.mutLat)
		mk = append(mk, float64(c.mutPoints)/c.mutTime.Seconds()/1e3)
		qk = append(qk, float64(c.queries)/c.queryTime.Seconds()/1e3)
		v50, _ := percentile(ms, 0.50)
		m50 = append(m50, float64(v50)/1e3)
		for kind := range queryKinds {
			var recs []*recorder
			for _, rec := range c.queryLat {
				recs = append(recs, rec[kind])
			}
			qs := merged(recs...)
			v50, _ := percentile(qs, 0.50)
			v99, ok := percentile(qs, 0.99)
			qtail = qtail && ok
			q50, q99 = append(q50, float64(v50)/1e3), append(q99, float64(v99)/1e3)
		}
		qn += c.queries
		ops += c.mutPoints + c.queries
		res.diag = append(res.diag, fmt.Sprintf("%s/%s: %d batch calls of %d points, %.0f kpts/s, p50 %.0f us; %d queries, %.0f kq/s",
			c.tree, c.data.dist, len(ms), c.b, mk[len(mk)-1], m50[len(m50)-1], c.queries, qk[len(qk)-1]))

		a, miss := c.verify(cfg.seed)
		res.attempted += a + len(ms) + c.queries
		res.failed += miss
	}
	allCalls := merged(calls...)
	mn := len(allCalls)
	m99, mtail := percentile(allCalls, 0.99)
	res.diag = append(res.diag, tailDiag("mut_p999_us", allCalls))
	res.set("mut_kops_s", geomean(mk), mn)
	res.set("query_kops_s", geomean(qk), qn)
	res.set("mut_p50_us", geomean(m50), mn)
	res.setTail("mut_p99_us", float64(m99)/1e3, mn, mtail)
	res.set("query_p50_us", geomean(q50), qn)
	res.setTail("query_p99_us", geomean(q99), qn, qtail)
	res.set("cpu_us_op", float64(cpu.Microseconds())/float64(ops), ops)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("rss_mb", rss, 1)

	if cfg.trace {
		genNsOp := float64(genTime.Nanoseconds()) / float64(2*n)
		if err := finishBatchTrace(res, cfg, tr, spans, busy, cells, g, genNsOp); err != nil {
			return nil, err
		}
	}
	return res, nil
}
