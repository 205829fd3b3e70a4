package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	psi "repro"
)

// The layer suite is the fixed part of every traced run: each layer of the
// stack measured alone, in process, through its public functions, at one
// size that does not depend on the workload. Every measured call is a
// span; the per-layer metrics are medians over those spans. README.md maps
// each metric to the end-to-end metric and workload it should move.

// suiteN is the population of the layer suite: large enough that trees
// are several levels deep and far beyond the CPU caches, small enough that
// the suite fits the run-time budget of a traced run.
const suiteN = 200_000

const (
	suiteQueries  = 2000 // queries timed per kind
	suiteWindow   = 4096 // ops in a measured flush window: psid's -maxbatch
	suiteWithin   = 20   // objects a WITHIN box holds
	suiteDurables = 200  // durable SETs timed one by one
)

type suite struct {
	n    int
	seed int64
	res  *result
	buf  *spanBuf
	tmp  string // private directory for WALs
	data []*dataset
	u    psi.Box
	// The tracked population of the collection, service, wal and repl
	// rows, and its object IDs as strings.
	pop *population
	id  []string
}

// span times one call and records it.
func (s *suite) span(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	s.buf.add(name, t0, t1, 0)
	return t1.Sub(t0)
}

// med runs fn reps times, one span each, and returns the median in ns.
func (s *suite) med(name string, reps int, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(s.span(name, fn))
	}
	return median(ds)
}

func (s *suite) set(name string, v float64, n int) { s.res.set(name, v, n) }

// heapBytes is the live heap after a full collection.
func heapBytes() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// singleThreaded runs fn with GOMAXPROCS 1: the base of every speedup.
func singleThreaded(fn func()) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// columns collects one value per dataset and row; flush pools each row by
// geometric mean.
type columns map[string][]float64

func (c columns) add(col string, v float64) { c[col] = append(c[col], v) }

func (s *suite) flush(prefix string, c columns) {
	for col, vs := range c {
		s.set(prefix+col, geomean(vs), len(vs))
	}
}

// diffSwap times BatchDiff(ins, del) and its inverse in alternation, reps
// times each, so that the index ends as it began. It returns the median
// per point moved and the allocations per call.
func (s *suite) diffSwap(name string, idx psi.Index, ins, del []psi.Point, reps int) (nsPt, allocs float64) {
	m0 := mallocs()
	flip := false
	ns := s.med(name, 2*reps, func() {
		if flip {
			idx.BatchDiff(del, ins)
		} else {
			idx.BatchDiff(ins, del)
		}
		flip = !flip
	})
	return ns / float64(len(ins)+len(del)), float64(mallocs()-m0) / float64(2*reps)
}

// knn is the median time of one 10-NN query over the first suiteQueries
// points of qs.
func (s *suite) knn(name string, idx psi.Index, qs []psi.Point) float64 {
	var pts []psi.Point
	i := 0
	return s.med(name, min(suiteQueries, len(qs)), func() { pts = idx.KNN(qs[i], knnK, pts[:0]); i++ })
}

// rangeListNsHit is the time of RangeList per point it returned.
func (s *suite) rangeListNsHit(name string, idx psi.Index, boxes []psi.Box) float64 {
	var pts []psi.Point
	var total time.Duration
	hits := 0
	for _, box := range boxes[:min(suiteQueries, len(boxes))] {
		total += s.span(name, func() { pts = idx.RangeList(box, pts[:0]) })
		hits += len(pts)
	}
	return float64(total) / float64(max(hits, 1))
}

func runLayerSuite(res *result, cfg config, tr *tracer, root string) error {
	n := suiteN
	if cfg.toy {
		n = 20_000
	}
	if err := os.MkdirAll(workDir(root), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(workDir(root), "suite-")
	if err != nil {
		return err
	}
	unhook := onExit(func() { os.RemoveAll(tmp) })
	defer func() { os.RemoveAll(tmp); unhook() }()

	s := &suite{n: n, seed: cfg.seed, res: res, buf: tr.extra(1 << 18), tmp: tmp, u: psi.Universe2D(side)}
	for di, dist := range batchDists {
		s.data = append(s.data, newDataset(dist, n, cfg.seed+int64(di)<<32))
	}
	t0 := time.Now()
	var took []string
	lap := func(section string) {
		took = append(took, fmt.Sprintf("%s %.1fs", section, time.Since(t0).Seconds()))
		t0 = time.Now()
	}
	s.pop, s.id = newPopulation(s.suiteMix(), cfg.seed), ids(n)
	for _, t := range batchTrees {
		s.indexRows(t.key, t.name, true)
	}
	for _, t := range []struct{ key, name string }{{"spacz", "SPaC-Z"}, {"pkd", "Pkd-Tree"}, {"zd", "Zd-Tree"}} {
		s.indexRows(t.key, t.name, false)
	}
	lap("index")
	s.shardRows()
	lap("shard")
	if err := s.collectionAndServiceRows(); err != nil {
		return err
	}
	lap("collection+service")
	if err := s.walRows(); err != nil {
		return err
	}
	lap("wal")
	if err := s.replRows(); err != nil {
		return err
	}
	lap("repl")
	res.diag = append(res.diag, fmt.Sprintf("layer suite at n=%d: %s", n, strings.Join(took, ", ")))
	return nil
}

// indexRows measures one tree family on both datasets and pools each
// metric by geometric mean. full adds the columns that only the paper's
// two trees carry; the reference families keep three.
func (s *suite) indexRows(key, name string, full bool) {
	pre := "index." + key + "."
	cols := columns{}
	for _, d := range s.data {
		n := s.n
		var idx psi.Index
		build := func() {
			idx = psi.ByName(name, 2, s.u)
			idx.Build(d.ring[:n])
		}
		all := s.med(pre+"Build", 3, build)
		cols.add("build_ns_pt", all/float64(n))
		if full {
			var one float64
			singleThreaded(func() { one = s.med(pre+"Build.1thread", 1, build) })
			cols.add("build_speedup", one/all)
			idx = nil
			before := heapBytes()
			build()
			cols.add("bytes_pt", (heapBytes()-before)/float64(n))
		}

		// A batch of fresh points from beyond the built prefix goes in
		// and comes out again, so every repetition starts from the same
		// tree.
		b := n / 100
		fresh, old := d.ring[n:n+b], d.ring[:b]
		if full {
			var ins, del []float64
			for range 5 {
				ins = append(ins, float64(s.span(pre+"BatchInsert", func() { idx.BatchInsert(fresh) })))
				del = append(del, float64(s.span(pre+"BatchDelete", func() { idx.BatchDelete(fresh) })))
			}
			cols.add("insert_ns_pt", median(ins)/float64(b))
			cols.add("delete_ns_pt", median(del)/float64(b))
		}
		diff, allocs := s.diffSwap(pre+"BatchDiff", idx, fresh, old, 3)
		cols.add("diff_ns_pt", diff)
		cols.add("knn_ns", s.knn(pre+"KNN", idx, d.knnIn))
		if !full {
			continue
		}
		cols.add("diff_allocs", allocs)
		bl := n / 10
		large, _ := s.diffSwap(pre+"BatchDiff.large", idx, d.ring[n:n+bl], d.ring[:bl], 2)
		cols.add("diff_large_ns_pt", large)
		var large1 float64
		singleThreaded(func() { large1, _ = s.diffSwap(pre+"BatchDiff.large.1thread", idx, d.ring[n:n+bl], d.ring[:bl], 1) })
		cols.add("diff_large_speedup", large1/large)
		small, _ := s.diffSwap(pre+"BatchDiff.small", idx, d.ring[n:n+100], d.ring[:100], 10)
		cols.add("diff_small_ns_pt", small)

		cols.add("knn_ood_ns", s.knn(pre+"KNN.ood", idx, d.knnOO))
		i, sink := 0, 0
		cols.add("rangecount_ns", s.med(pre+"RangeCount", min(suiteQueries, len(d.boxes)), func() { sink += idx.RangeCount(d.boxes[i]); i++ }))
		cols.add("rangelist_ns_hit", s.rangeListNsHit(pre+"RangeList", idx, d.boxes))
	}
	s.flush(pre, cols)
}

// newSharded is psid's default index stack: SPaC-H under the Hilbert-range
// shard layer, one shard per core.
func (s *suite) newSharded() *psi.Sharded { return psi.NewSharded(psi.NewSPaCH, 2, s.u, 0) }

func (s *suite) shardRows() {
	cols := columns{}
	for _, d := range s.data {
		n := s.n
		var idx *psi.Sharded
		cols.add("build_ns_pt", s.med("shard.Build", 3, func() {
			idx = s.newSharded()
			idx.Build(d.ring[:n])
		})/float64(n))
		if d.dist == psi.Varden {
			sizes := idx.ShardSizes(nil)
			s.set("shard.imbalance", float64(slices.Max(sizes))*float64(len(sizes))/float64(n), len(sizes))
		}
		diff, _ := s.diffSwap("shard.BatchDiff", idx, d.ring[n:n+n/100], d.ring[:n/100], 3)
		cols.add("diff_ns_pt", diff)
		small, _ := s.diffSwap("shard.BatchDiff.small", idx, d.ring[n:n+100], d.ring[:100], 10)
		cols.add("diff_small_ns_pt", small)
		cols.add("knn_ns", s.knn("shard.KNN", idx, d.knnIn))
		cols.add("rangelist_ns_hit", s.rangeListNsHit("shard.RangeList", idx, d.boxes))
	}
	s.flush("shard.", cols)
}

// suiteMix is the traffic the collection, service, wal and repl rows are
// measured with: track-ingest's mix over the suite's population.
func (s *suite) suiteMix() mix {
	return mix{objects: s.n, set: 0.90, nearby: 0.10, hop: 0.10, k: knnK, hits: suiteWithin}
}

func ids(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(objectID(nil, i))
	}
	return out
}

// loadCollection places the whole population through the collection of a
// server the benchmark holds in process, in windows of psid's size: one
// giant window would leave the collection's scratch sized for it, and
// every later flush would pay for clearing that.
func loadCollection(srv *psi.Server, id []string, pos []psi.Point) {
	c := srv.Collection()
	for i, p := range pos {
		c.Set(id[i], p)
		if (i+1)%suiteWindow == 0 {
			c.Flush()
		}
	}
	c.Flush()
}

func shutdown(srv *psi.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// linesOf splits a generated stream by request kind.
func linesOf(st *stream, kind opKind) (lines [][]byte, ops []op) {
	for i, o := range st.ops {
		if o.kind == kind {
			lines = append(lines, st.line(i))
			ops = append(ops, o)
		}
	}
	return lines, ops
}

// collectionAndServiceRows measures the collection through the server's
// own Collection() and the service through LineConn.Serve, on two servers
// configured like psid (4096-op windows) but without the background
// flusher, so that every flush is one the suite asked for.
func (s *suite) collectionAndServiceRows() error {
	m, pop, id := s.suiteMix(), s.pop, s.id
	traffic := pop.trafficStream(m, s.seed, 0, 1, 8*suiteWindow)
	within := pop.trafficStream(mix{objects: s.n, hop: m.hop, k: knnK, hits: suiteWithin}, s.seed, 0, 1, suiteQueries)
	sets, setOps := linesOf(traffic, opSet)
	nearbys, nearbyOps := linesOf(traffic, opNearby)
	withins, withinOps := linesOf(within, opWithin)
	opts := psi.ServerOptions{MaxBatch: 1 << 30, FlushInterval: -1}

	// Collection.
	before := heapBytes()
	srv := psi.NewServer(s.newSharded(), opts)
	loadCollection(srv, id, pop.pos0)
	s.set("collection.bytes_obj", (heapBytes()-before)/float64(s.n), s.n)
	c := srv.Collection()
	var setNs, flushNs []float64
	st0 := c.Stats()
	var flushMallocs uint64
	const windows = 5
	for w := range windows {
		win := setOps[w*suiteWindow : (w+1)*suiteWindow]
		setNs = append(setNs, float64(s.span("collection.Set.window", func() {
			for _, o := range win {
				c.Set(id[o.obj], o.p)
			}
		}))/suiteWindow)
		m0 := mallocs()
		flushNs = append(flushNs, float64(s.span("collection.Flush", func() { c.Flush() }))/suiteWindow)
		if w > 0 { // the first window warms the scratch
			flushMallocs += mallocs() - m0
		}
	}
	s.set("collection.flush_allocs", float64(flushMallocs)/(windows-1), windows-1)
	st1 := c.Stats()
	s.set("collection.set_ns", median(setNs), windows*suiteWindow)
	s.set("collection.flush_ns_op", median(flushNs), windows)
	raw := float64(windows * suiteWindow)
	s.set("collection.netting_ratio", (raw-float64(st1.Cancelled-st0.Cancelled))/raw, windows*suiteWindow)
	i := 0
	s.set("collection.flush_small_us", s.med("collection.Set+Flush", suiteDurables, func() {
		o := setOps[windows*suiteWindow+i]
		c.Set(id[o.obj], o.p)
		c.Flush()
		i++
	})/1e3, suiteDurables)
	var hitsBuf []psi.CollectionEntry[string]
	i = 0
	collNearby := s.med("collection.NearbyIDsAppend", len(nearbyOps), func() {
		hitsBuf = c.NearbyIDsAppend(nearbyOps[i].p, knnK, hitsBuf[:0])
		i++
	})
	s.set("collection.nearby_ns", collNearby, len(nearbyOps))
	var withinNs time.Duration
	hits := 0
	for _, o := range withinOps {
		lo, hi := withinBox(o.p, o.half)
		withinNs += s.span("collection.WithinIDsAppend", func() { hitsBuf = c.WithinIDsAppend(psi.BoxOf(lo, hi), hitsBuf[:0]) })
		hits += len(hitsBuf)
	}
	s.set("collection.within_ns_hit", float64(withinNs)/float64(max(hits, 1)), hits)
	s.set("collection.get_ns", float64(s.span("collection.Get.block", func() {
		for j := range suiteQueries {
			c.Get(id[(j*7919)%s.n])
		}
	}))/suiteQueries, suiteQueries)

	// A reader's worst wait while a large window commits.
	stop := make(chan struct{})
	worst := make(chan time.Duration)
	go func() {
		var w time.Duration
		var buf []psi.CollectionEntry[string]
		for j := 0; ; j++ {
			select {
			case <-stop:
				worst <- w
				return
			default:
			}
			t0 := time.Now()
			buf = c.NearbyIDsAppend(nearbyOps[j%len(nearbyOps)].p, knnK, buf[:0])
			w = max(w, time.Since(t0))
		}
	}()
	s.span("collection.Flush.large", func() {
		for j := 0; j < s.n/2; j++ {
			c.Set(id[j], pop.pos0[(j+1)%s.n])
		}
		c.Flush()
	})
	close(stop)
	s.set("collection.reader_stall_us", float64((<-worst).Microseconds()), 1)
	if err := shutdown(srv); err != nil {
		return fmt.Errorf("layer suite: collection server: %w", err)
	}

	// Service: the same calls as protocol lines through LineConn.Serve.
	srv = psi.NewServer(s.newSharded(), opts)
	loadCollection(srv, id, pop.pos0)
	lc := srv.NewLineConn()
	serveBlock := func(name string, lines [][]byte) float64 {
		return float64(s.span(name, func() {
			for _, l := range lines {
				lc.Serve(l)
			}
		})) / float64(len(lines))
	}
	setNs = setNs[:0]
	for w := range windows {
		setNs = append(setNs, serveBlock("service.Serve.SET.window", sets[w*suiteWindow:(w+1)*suiteWindow]))
		srv.Collection().Flush()
	}
	svcSet := median(setNs)
	s.set("service.set_ns", svcSet, windows*suiteWindow)
	i = 0
	svcNearby := s.med("service.Serve.NEARBY", len(nearbys), func() { lc.Serve(nearbys[i]); i++ })
	s.set("service.nearby_ns", svcNearby, len(nearbys))
	withinNs, hits = 0, 0
	for _, l := range withins {
		var reply []byte
		withinNs += s.span("service.Serve.WITHIN", func() { reply = lc.Serve(l) })
		h, _ := scanHits(reply, s.n)
		hits += h
	}
	s.set("service.within_ns_hit", float64(withinNs)/float64(max(hits, 1)), hits)
	gets := make([][]byte, suiteQueries)
	for j := range gets {
		gets[j] = appendGet(nil, (j*7919)%s.n)
	}
	s.set("service.get_ns", serveBlock("service.Serve.GET.block", gets), len(gets))
	m0 := mallocs()
	mixed := traffic.ops[windows*suiteWindow : (windows+1)*suiteWindow]
	for j := range mixed {
		lc.Serve(traffic.line(windows*suiteWindow + j))
	}
	s.set("service.serve_allocs", float64(mallocs()-m0)/float64(len(mixed)), len(mixed))
	s.set("service.self_set_ns", svcSet-s.res.get("collection.set_ns"), windows*suiteWindow)
	s.set("service.self_nearby_ns", svcNearby-collNearby, len(nearbys))
	if err := shutdown(srv); err != nil {
		return fmt.Errorf("layer suite: service server: %w", err)
	}

	// Freshness: how long after its acknowledgement a SET shows in
	// NEARBY, under psid's default flush cadence.
	srv = psi.NewServer(s.newSharded(), psi.ServerOptions{MaxBatch: suiteWindow})
	loadCollection(srv, id, pop.pos0)
	lc = srv.NewLineConn()
	var lags []float64
	for j := range 50 {
		// A corner of the universe no object of the population visits.
		p := psi.Pt2(side-int64(j), side)
		lc.Serve(appendSet(nil, j, p))
		acked := time.Now()
		probe := appendNearby(nil, p, 1)
		want := []byte(fmt.Sprintf(`"p":[%d,%d]`, p[0], p[1]))
		for !bytes.Contains(lc.Serve(probe), want) {
			if time.Since(acked) > 5*time.Second {
				return errors.New("layer suite: an acknowledged SET never became visible to NEARBY")
			}
		}
		lags = append(lags, float64(time.Since(acked).Microseconds()))
		s.buf.add("service.visible", acked, time.Now(), int64(j))
	}
	s.set("service.visible_lag_us", median(lags), len(lags))
	return shutdown(srv)
}

// walRows measures the durability layer through a server with a WAL under
// fsync=always: the cost of a durable acknowledgement over a memory-only
// one-op window, checkpoints, and both recovery paths.
func (s *suite) walRows() error {
	m, pop, id := s.suiteMix(), s.pop, s.id
	traffic := pop.trafficStream(mix{objects: s.n, set: 1, hop: m.hop}, s.seed, 0, 1, 4*suiteDurables)
	dir := filepath.Join(s.tmp, "wal")

	// The baseline: the same one-op windows without a log.
	mem := psi.NewServer(s.newSharded(), psi.ServerOptions{MaxBatch: suiteWindow, FlushInterval: -1})
	loadCollection(mem, id, pop.pos0)
	lc := mem.NewLineConn()
	flush := []byte(`{"op":"FLUSH"}`)
	i := 0
	memUs := s.med("service.Serve.SET+FLUSH", suiteDurables, func() {
		lc.Serve(traffic.line(i))
		lc.Serve(flush)
		i++
	}) / 1e3
	if err := shutdown(mem); err != nil {
		return err
	}

	opts := psi.ServerOptions{
		MaxBatch: suiteWindow, FlushInterval: -1,
		WALDir: dir, WALFsync: psi.WALFsyncAlways, WALSnapshotInterval: time.Hour,
	}
	srv, err := psi.NewDurableServer(s.newSharded(), opts)
	if err != nil {
		return fmt.Errorf("layer suite: %w", err)
	}
	loadCollection(srv, id, pop.pos0)
	lc = srv.NewLineConn()
	w0 := srv.Stats().WAL
	i = 0
	durUs := s.med("wal.Serve.SET.durable", suiteDurables, func() { lc.Serve(traffic.line(i)); i++ }) / 1e3
	w1 := srv.Stats().WAL
	s.set("wal.append_us_ack", durUs-memUs, suiteDurables)
	s.set("wal.bytes_per_op", float64(w1.AppendedBytes-w0.AppendedBytes)/suiteDurables, suiteDurables)
	s.set("wal.fsyncs_per_ack", float64(w1.Fsyncs-w0.Fsyncs)/suiteDurables, suiteDurables)

	// The directory as a crash would leave it: a log, no closing
	// snapshot. Nothing is pending, so the copy is consistent.
	crashed := filepath.Join(s.tmp, "wal-crashed")
	if err := copyDir(dir, crashed); err != nil {
		return err
	}

	var snapErr error
	s.set("wal.checkpoint_ms", s.med("wal.SnapshotWAL", 3, func() { snapErr = errors.Join(snapErr, srv.SnapshotWAL()) })/1e6, 3)
	// A writer's worst wait while a checkpoint runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.span("wal.SnapshotWAL.concurrent", func() { snapErr = errors.Join(snapErr, srv.SnapshotWAL()) })
	}()
	var worst time.Duration
	for running := true; running; i++ {
		select {
		case <-done:
			running = false
		default:
		}
		worst = max(worst, s.span("wal.Serve.SET.during-checkpoint", func() { lc.Serve(traffic.line(i % len(traffic.ops))) }))
	}
	s.set("wal.checkpoint_stall_us", float64(worst.Microseconds()), 1)
	if snapErr != nil {
		return fmt.Errorf("layer suite: checkpoint: %w", snapErr)
	}
	if err := shutdown(srv); err != nil {
		return err
	}

	recoverFrom := func(name, dir string) (float64, error) {
		o := opts
		o.WALDir = dir
		var rec *psi.Server
		var err error
		d := s.span(name, func() { rec, err = psi.NewDurableServer(s.newSharded(), o) })
		if err != nil {
			return 0, fmt.Errorf("layer suite: recovery: %w", err)
		}
		if got := rec.Stats().Objects; got != s.n {
			s.res.failed++
			s.res.diag = append(s.res.diag, fmt.Sprintf("%s recovered %d objects, want %d", name, got, s.n))
		}
		s.res.attempted++
		return float64(d) / 1e6, shutdown(rec)
	}
	snapMs, err := recoverFrom("wal.NewDurableServer.snapshot", dir)
	if err != nil {
		return err
	}
	logMs, err := recoverFrom("wal.NewDurableServer.log", crashed)
	if err != nil {
		return err
	}
	s.set("wal.recover_snap_ms", snapMs, 1)
	s.set("wal.recover_ms", logMs, 1)
	return nil
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		src, err := os.Open(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		dst, err := os.Create(filepath.Join(to, e.Name()))
		if err != nil {
			src.Close()
			return err
		}
		_, err = io.Copy(dst, src)
		src.Close()
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replRows runs a leader and a follower in process (two servers, real
// loopback replication stream) and measures bootstrap, the time a
// committed window takes to show on the follower, and per-SET freshness.
// No end-to-end workload has a follower, so these rows move no gated
// metric yet.
func (s *suite) replRows() error {
	m, pop, id := s.suiteMix(), s.pop, s.id
	traffic := pop.trafficStream(mix{objects: s.n, set: 1, hop: m.hop}, s.seed, 0, 1, 16*1024)
	leader, err := psi.NewDurableServer(s.newSharded(), psi.ServerOptions{
		MaxBatch: suiteWindow, FlushInterval: -1,
		WALDir: filepath.Join(s.tmp, "leader"), WALFsync: psi.WALFsyncNever, ReplListen: "127.0.0.1:0",
	})
	if err != nil {
		return fmt.Errorf("layer suite: leader: %w", err)
	}
	defer shutdown(leader)
	if err := leader.Start("127.0.0.1:0", ""); err != nil {
		return fmt.Errorf("layer suite: leader: %w", err)
	}
	loadCollection(leader, id, pop.pos0)

	follower, err := psi.NewDurableServer(s.newSharded(), psi.ServerOptions{
		WALDir: filepath.Join(s.tmp, "follower"), WALFsync: psi.WALFsyncNever, ReplicaOf: leader.ReplAddr().String(),
	})
	if err != nil {
		return fmt.Errorf("layer suite: follower: %w", err)
	}
	defer shutdown(follower)
	t0 := time.Now()
	if err := follower.Start("127.0.0.1:0", ""); err != nil {
		return fmt.Errorf("layer suite: follower: %w", err)
	}
	for follower.Stats().Objects != s.n {
		if time.Since(t0) > 60*time.Second {
			return errors.New("layer suite: the follower never finished its bootstrap")
		}
		time.Sleep(time.Millisecond)
	}
	s.buf.add("repl.bootstrap", t0, time.Now(), int64(s.n))
	s.set("repl.bootstrap_ms", float64(time.Since(t0).Microseconds())/1e3, 1)

	ll, fl := leader.NewLineConn(), follower.NewLineConn()
	flush := []byte(`{"op":"FLUSH"}`)
	// shipped commits a window on the leader — the SETs of the stream and
	// last a marker object at a corner no object visits — and returns how
	// long after the FLUSH acknowledgement the follower's NEARBY shows the
	// marker, that is, has applied the window.
	next, marks := 0, 0
	shipped := func(name string, window int) (float64, error) {
		for range window - 1 {
			ll.Serve(traffic.line(next))
			next++
		}
		marks++
		p := psi.Pt2(side, side-int64(marks))
		ll.Serve(appendSet(nil, 0, p))
		ll.Serve(flush)
		acked := time.Now()
		want := []byte(fmt.Sprintf(`"p":[%d,%d]`, p[0], p[1]))
		probe := appendNearby(nil, p, 1)
		for !bytes.Contains(fl.Serve(probe), want) {
			if time.Since(acked) > 10*time.Second {
				return 0, errors.New("layer suite: a committed window never reached the follower")
			}
		}
		s.buf.add(name, acked, time.Now(), int64(window))
		return float64(time.Since(acked).Microseconds()), nil
	}
	var lag, ship []float64
	for range 50 {
		v, err := shipped("repl.visible", 1)
		if err != nil {
			return err
		}
		lag = append(lag, v)
	}
	for range 10 {
		v, err := shipped("repl.ship.window", 1024)
		if err != nil {
			return err
		}
		ship = append(ship, v)
	}
	s.set("repl.visible_lag_us", median(lag), len(lag))
	s.set("repl.ship_us_window", median(ship), len(ship))
	return nil
}
