package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	psi "repro"
)

// A traced run of a track-* workload ends here. The window itself was
// traced from the client side (one span per request). To see inside the
// server without touching its code, the same request stream is replayed in
// process against a stack built like psid's, with the timing decorator
// between the layers: Serve spans enclose shard spans enclose index spans.
// The replay commits windows of the size the real server was observed to
// commit, on the caller's goroutine, so that spans nest.

// replayOps bounds how much of connection 0's ring a replay serves.
const (
	replayOps        = 20_000
	replayOpsDurable = 1_500 // every SET of the WAL replay waits for a device fsync
)

type traceContext struct {
	run           *trackRun
	st            *stack
	res           *result
	root          string
	before, after serverStats
	serverCPU     time.Duration
	clientCPU     time.Duration
	genNsOp       float64
	id            []string // the population's object IDs
}

// layerTimes is what one replay spent per layer, as covered wall time.
type layerTimes struct {
	top, shard, index time.Duration
	ops               int
	queryMedianUs     float64
}

// replayStack builds psid's default stack in process with the decorator at
// both seams and preloads the run's population.
func (tc *traceContext) replayStack(buf *spanBuf, walDir string) (*psi.Server, error) {
	mk := func(dims int, u psi.Box) psi.Index { return timed(psi.NewSPaCH(dims, u), "index", buf) }
	idx := timed(psi.NewSharded(mk, 2, psi.Universe2D(side), 0), "shard", buf)
	opts := psi.ServerOptions{MaxBatch: suiteWindow, FlushInterval: -1}
	if walDir != "" {
		opts.WALDir, opts.WALFsync, opts.WALSnapshotInterval = walDir, psi.WALFsyncAlways, time.Hour
	}
	srv, err := psi.NewDurableServer(idx, opts)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	loadCollection(srv, tc.id, tc.run.pop.pos0)
	return srv, nil
}

// replay serves n requests of connection 0's ring. Through the protocol
// (direct false) each is a service span around LineConn.Serve; direct,
// each is a collection span around the Collection call the server would
// have made. A window is committed every perFlush SETs, unless the server
// commits by itself (a WAL under fsync=always does, before every ack).
func (tc *traceContext) replay(buf *spanBuf, srv *psi.Server, n, perFlush int, direct, selfCommit bool) layerTimes {
	s := tc.run.traffic[0]
	lc, c, id := srv.NewLineConn(), srv.Collection(), tc.id
	flush := []byte(`{"op":"FLUSH"}`)
	var hits []psi.CollectionEntry[string]
	var queryNs []float64
	from := time.Now()
	pending := 0
	for i := range n {
		o := &s.ops[i]
		t0 := time.Now()
		switch {
		case !direct:
			lc.Serve(s.line(i))
		case o.kind == opSet:
			c.Set(id[o.obj], o.p)
		case o.kind == opNearby:
			hits = c.NearbyIDsAppend(o.p, tc.run.spec.mix.k, hits[:0])
		default:
			lo, hi := withinBox(o.p, o.half)
			hits = c.WithinIDsAppend(psi.BoxOf(lo, hi), hits[:0])
		}
		t1 := time.Now()
		if direct {
			buf.add("collection."+kindName[o.kind], t0, t1, int64(i))
		} else {
			buf.add("service."+kindName[o.kind], t0, t1, int64(i))
		}
		if o.kind != opSet {
			queryNs = append(queryNs, float64(t1.Sub(t0)))
			continue
		}
		if pending++; pending >= perFlush && !selfCommit {
			pending = 0
			t0 = time.Now()
			if direct {
				c.Flush()
				buf.add("collection.Flush", t0, time.Now(), int64(i))
			} else {
				lc.Serve(flush)
				buf.add("service.FLUSH", t0, time.Now(), int64(i))
			}
		}
	}
	to := time.Now()
	spans, _ := buf.recorded()
	lo, hi := int64(from.Sub(buf.epoch)), int64(to.Sub(buf.epoch))
	top := "service"
	if direct {
		top = "collection"
	}
	return layerTimes{
		top:           covered(spans, top, lo, hi),
		shard:         covered(spans, "shard", lo, hi),
		index:         covered(spans, "index", lo, hi),
		ops:           n,
		queryMedianUs: median(queryNs) / 1e3,
	}
}

// acked is the number of SETs acknowledged so far, over every window.
func (r *trackRun) acked() int {
	n := 0
	for c := range r.recs {
		n += r.recs[c].sets
	}
	return n
}

var kindName = [...]string{opSet: "SET", opNearby: "NEARBY", opWithin: "WITHIN"}

func (tc *traceContext) finish() error {
	r, res := tc.run, tc.res
	window := r.cfg.window()
	ops, sets := 0, r.acked()
	for c := range r.recs {
		ops += r.recs[c].attempted
	}

	// Counts and client-side numbers of the traced window.
	res.set("service.flushes_per_kop", float64(tc.after.Flushes-tc.before.Flushes)/(float64(ops)/1e3), ops)
	res.set("client.cpu_share", tc.clientCPU.Seconds()/(tc.clientCPU+tc.serverCPU).Seconds(), 1)
	res.set("client.encode_ns_op", tc.genNsOp, 1)

	// Tracing overhead: short windows of the same closed loop, traced
	// and untraced in alternation so that drift hits both alike.
	burst := min(r.cfg.window()/8, 500*time.Millisecond)
	var rate [2]float64 // acknowledged SETs per second: untraced, traced
	for i := range 4 {
		traced := i%2 == 1
		before := r.acked()
		if err := r.window(tc.st, burst, false, traced); err != nil {
			return fmt.Errorf("tracing-overhead window: %w", err)
		}
		rate[i%2] += float64(r.acked() - before)
	}
	res.set("client.trace_overhead_share", 1-rate[1]/rate[0], int(rate[0]+rate[1]))

	// The in-process replays.
	tc.id = ids(len(r.pop.pos0))
	n := replayOps
	if r.spec.durable {
		n = replayOpsDurable
	}
	n = min(n, len(r.traffic[0].ops))
	perFlush := 1
	if flushes := tc.after.Flushes - tc.before.Flushes; !r.spec.durable && flushes > 0 {
		perFlush = max(int(float64(sets)/float64(flushes)+0.5), 1)
	}
	replayOnce := func(direct bool, walDir string) (layerTimes, error) {
		buf := r.tr.extra(8 * n)
		srv, err := tc.replayStack(buf, walDir)
		if err != nil {
			return layerTimes{}, err
		}
		lt := tc.replay(buf, srv, n, perFlush, direct, walDir != "")
		return lt, shutdown(srv)
	}
	served, err := replayOnce(false, "")
	if err != nil {
		return err
	}
	called, err := replayOnce(true, "")
	if err != nil {
		return err
	}
	var walTime time.Duration
	if r.spec.durable {
		tmp, err := os.MkdirTemp(workDir(tc.root), "replay-")
		if err != nil {
			return err
		}
		unhook := onExit(func() { os.RemoveAll(tmp) })
		logged, err := replayOnce(false, filepath.Join(tmp, "wal"))
		os.RemoveAll(tmp)
		unhook()
		if err != nil {
			return err
		}
		walTime = max(logged.top-served.top, 0)
	}

	// Shares of the time one connection spends per request, as the
	// client saw it.
	clientPerOp := window.Seconds() * float64(len(r.recs)) / float64(ops)
	share := func(d time.Duration) float64 { return d.Seconds() / float64(n) / clientPerOp }
	res.set("index.self_share", share(served.index), n)
	res.set("shard.self_share", share(served.shard-served.index), n)
	res.set("collection.self_share", share(called.top-called.shard), n)
	res.set("service.self_share", share(max(served.top-called.top, 0)), n)
	res.set("wal.self_share", share(walTime), n)
	res.set("client.socket_share", 1-share(served.top+walTime), n)
	res.set("service.socket_us", res.get("query_p50_us")-served.queryMedianUs, n)

	if err := runLayerSuite(res, r.cfg, r.tr, tc.root); err != nil {
		return err
	}
	return writeSpans(res, r.cfg, r.tr, tc.root)
}

func writeSpans(res *result, cfg config, tr *tracer, root string) error {
	if err := os.MkdirAll(workDir(root), 0o755); err != nil {
		return err
	}
	path := filepath.Join(workDir(root), fmt.Sprintf("spans-%s-seed%d.jsonl", res.workload, cfg.seed))
	n, err := tr.writeJSONL(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	dropped := int64(0)
	for _, b := range tr.bufs {
		_, d := b.recorded()
		dropped += d
	}
	res.diag = append(res.diag, fmt.Sprintf("%d spans written to %s (%d beyond the preallocated memory were counted, not kept)", n, path, dropped))
	return nil
}

// finishBatchTrace ends a traced batch-index run. The decorator sat
// around every index call of the measured phases, so index self time is
// the spans' total; no other layer ran. Tracing overhead is measured on
// the same trees: the decorator comes off and the mutation phase runs
// again.
func finishBatchTrace(res *result, cfg config, tr *tracer, spans *spanBuf, busy time.Duration, cells []*cell, g int, genNsOp float64) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	// Bursts of the mutation phase, decorated and bare in alternation so
	// that drift hits both alike.
	var wall time.Duration
	var rate [2]float64 // points per second: bare, traced
	burst := cfg.window() / time.Duration(32*len(cells))
	for _, c := range cells {
		wall += c.mutTime + time.Duration(g)*c.queryTime
		variants := [2]psi.Index{untimed(c.idx), c.idx}
		for i := range 8 {
			c.idx, c.mutPoints, c.mutTime = variants[i%2], 0, 0
			c.mutate(burst)
			rate[i%2] += float64(c.mutPoints) / c.mutTime.Seconds()
		}
	}
	res.set("index.self_share", busy.Seconds()/wall.Seconds(), int(spans.next.Load()))
	res.set("client.trace_overhead_share", 1-rate[1]/rate[0], 8*len(cells))
	res.set("client.encode_ns_op", genNsOp, 1)
	for _, name := range []string{
		"shard.self_share", "collection.self_share", "wal.self_share", "service.self_share",
		"client.socket_share", "client.cpu_share", "service.socket_us", "service.flushes_per_kop",
	} {
		res.set(name, 0, 0) // no such layer runs in this workload
	}
	if err := runLayerSuite(res, cfg, tr, root); err != nil {
		return err
	}
	return writeSpans(res, cfg, tr, root)
}
