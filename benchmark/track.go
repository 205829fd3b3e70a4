package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	psi "repro"
)

// trackSpec is one of the three workloads that drive a real psid process
// over its wire protocol. BENCHMARK.json and README.md say why each
// exists; the sizes are the largest that fit the run-time budget of the
// benchmark contract on two cores.
type trackSpec struct {
	name    string
	mix     mix
	depth   int  // requests in flight per connection
	durable bool // WAL with fsync=always, crash and recover during set-up
	ring    int  // pre-generated requests per connection (replayed cyclically)
}

var trackSpecs = []trackSpec{
	{
		name:  "track-interactive",
		mix:   mix{objects: 50_000, set: 0.50, nearby: 0.40, hop: 0.01, k: 10, hits: 20},
		depth: 1,
		ring:  1 << 18,
	},
	{
		name:  "track-ingest",
		mix:   mix{objects: 300_000, set: 0.90, nearby: 0.10, hop: 0.10, k: 10, hits: 20},
		depth: 256,
		ring:  1 << 20,
	},
	{
		name:    "track-durable",
		mix:     mix{objects: 50_000, set: 0.80, nearby: 0.20, hop: 0.01, k: 10, hits: 20},
		depth:   1,
		durable: true,
		ring:    1 << 17,
	},
}

// checkpointEvery is track-durable's -snapshot-interval: short enough that
// several checkpoints (each stalls writes while it runs) fall inside every
// measured window.
const checkpointEvery = 2 * time.Second

// conns is the closed-loop client count: one connection per core up to
// four, each waiting for its replies before it sends again.
func conns() int { return min(runtime.NumCPU(), 4) }

// stack is one set-up server with its client connections. tmp, when set,
// is the run's private directory (it holds the WAL).
type stack struct {
	srv    *psid
	ws     []*wire
	tmp    string
	unhook func()
}

func (st *stack) close() {
	closeAll(st.ws)
	if st.srv != nil {
		st.srv.stop()
	}
	if st.tmp != "" {
		os.RemoveAll(st.tmp)
		st.unhook()
	}
}

// sample is one completed request of a measured window.
type sample struct {
	at  int64 // completion, ns since the window started
	lat int64 // write of its batch to read of its reply, ns
}

// connRec is what one connection goroutine records; nothing in it is
// shared, so the hot path takes no lock.
type connRec struct {
	mut, qry  []sample
	attempted int
	failed    int
	sets      int // acknowledged SETs, over every window
	cursor    int // next request of the ring
}

// trackRun holds one run's state across set-up, windows and verification.
type trackRun struct {
	spec    trackSpec
	cfg     config
	bin     string
	pop     *population
	pre     []*stream
	traffic []*stream
	// final is every object's last acknowledged position. A connection
	// writes only the objects it owns, so the goroutines never share an
	// element.
	final []psi.Point
	recs  []connRec
	tr    *tracer
}

func runTrack(spec trackSpec, cfg config) (*result, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	bin, err := buildPsid(root)
	if err != nil {
		return nil, err
	}
	if cfg.toy {
		spec.mix.objects = 20_000
		spec.ring = 1 << 14
	}
	r := &trackRun{spec: spec, cfg: cfg, bin: bin}
	nc := conns()

	genStart := time.Now()
	r.pop = newPopulation(spec.mix, cfg.seed)
	r.pre = r.pop.preloadStreams(nc)
	r.traffic = make([]*stream, nc)
	for c := range nc {
		r.traffic[c] = r.pop.trafficStream(spec.mix, cfg.seed, c, nc, spec.ring)
	}
	r.final = slices.Clone(r.pop.pos0)
	genTime := time.Since(genStart)
	genOps := len(r.pop.pos0) + nc*spec.ring

	// Set-up is repeated and its median reported, so that one slow spawn
	// does not decide setup_s; the last stack is the one measured.
	var st *stack
	var setups []float64
	res := newResult(spec.name)
	for range cfg.setups() {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var refused int
		st, refused, err = r.setUp(root)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (genTime + time.Since(t0)).Seconds())
		// Every preloaded SET is an attempted op; the durable set-up
		// also GET-verifies each object after recovery.
		res.attempted += len(r.pop.pos0)
		res.failed += refused
	}
	defer func() { st.close() }()
	res.set("setup_s", median(setups), len(setups))

	if cfg.trace {
		r.tr = newTracer(nc, spansPerConn)
	}
	r.recs = make([]connRec, nc)
	warm := cfg.warmup()
	if err := r.window(st, warm, false, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	hint := 0
	for c := range r.recs {
		// The warm-up rate sizes the sample buffers of the measured
		// window (with headroom), so recording does not reallocate.
		hint = max(hint, r.recs[c].attempted)
		r.recs[c].attempted, r.recs[c].failed = 0, 0
	}
	hint = int(float64(hint) * (cfg.seconds / warm.Seconds()) * 1.5)
	for c := range r.recs {
		r.recs[c].mut = make([]sample, 0, hint)
		r.recs[c].qry = make([]sample, 0, hint)
	}

	before, err := st.ws[0].stats()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(st.srv.pid())
	if err != nil {
		return nil, err
	}
	own0 := selfCPU()
	var probe *memProbe
	if cfg.trace {
		probe = startMemProbe()
	}
	err = r.window(st, cfg.window(), true, cfg.trace)
	if probe != nil {
		res.set("client.mem_probe_ns", probe.finish(), len(probe.samples))
	}
	if err != nil {
		return nil, fmt.Errorf("measured window: %w", err)
	}
	cpu1, err := procCPU(st.srv.pid())
	if err != nil {
		return nil, err
	}
	own1 := selfCPU()
	after, err := st.ws[0].stats()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(st.srv.pid())
	if err != nil {
		return nil, err
	}

	r.summarise(res, (cpu1 - cpu0), rss)
	if err := r.verify(st, res); err != nil {
		return nil, err
	}
	if spec.durable && !cfg.toy {
		if before.WAL == nil || after.WAL == nil {
			return nil, errors.New("the server reports no WAL counters in STATS")
		}
		if n := after.WAL.Snapshots - before.WAL.Snapshots; n < 3 {
			return nil, fmt.Errorf("only %d checkpoints fell inside the window; the workload needs several", n)
		}
	}
	if cfg.trace {
		tc := traceContext{
			run: r, st: st, res: res, root: root, before: before, after: after,
			serverCPU: cpu1 - cpu0, clientCPU: own1 - own0,
			genNsOp: float64(genTime.Nanoseconds()) / float64(genOps),
		}
		if err := tc.finish(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setUp spawns a server and preloads it. The durable variant preloads
// under a relaxed fsync policy, crashes the server with SIGKILL, restarts
// it under fsync=always so that it recovers by replaying its log, and
// verifies every preloaded object; the time of all that is setup_s.
func (r *trackRun) setUp(root string) (*stack, int, error) {
	st := &stack{}
	var flags []string
	walDir := ""
	if r.spec.durable {
		dir, err := os.MkdirTemp(workDir(root), "run-")
		if err != nil {
			return nil, 0, err
		}
		st.tmp = dir
		st.unhook = onExit(func() { os.RemoveAll(dir) })
		walDir = filepath.Join(dir, "wal")
		flags = []string{"-wal", walDir, "-fsync", "100ms"}
	}
	fail := func(err error) (*stack, int, error) {
		st.close()
		return nil, 0, err
	}
	var err error
	if st.srv, err = startPsid(r.bin, flags...); err != nil {
		return fail(err)
	}
	if st.ws, err = dialAll(st.srv.addr, len(r.pre)); err != nil {
		return fail(err)
	}
	refused, err := preload(st.ws, r.pre)
	if err != nil {
		return fail(err)
	}
	if !r.spec.durable {
		return st, refused, nil
	}

	closeAll(st.ws)
	st.ws = nil
	st.srv.stop() // SIGKILL: no drain, no final flush, no closing snapshot
	st.srv, err = startPsid(r.bin, "-wal", walDir, "-fsync", "always",
		"-snapshot-interval", checkpointEvery.String())
	if err != nil {
		return fail(err)
	}
	if st.ws, err = dialAll(st.srv.addr, len(r.pre)); err != nil {
		return fail(err)
	}
	lost, err := r.getAll(st)
	if err != nil {
		return fail(err)
	}
	return st, refused + lost, nil
}

// window runs the closed loop for d: every connection replays its ring
// from where it stopped, depth requests in flight, and checks each reply.
func (r *trackRun) window(st *stack, d time.Duration, record, traced bool) error {
	start := time.Now()
	deadline := start.Add(d)
	k, objects := r.spec.mix.k, r.spec.mix.objects
	return eachConn(st.ws, func(c int, w *wire) error {
		s, rec := r.traffic[c], &r.recs[c]
		var spans *spanBuf
		if traced {
			spans = r.tr.buf(c)
		}
		check := func(i int, reply []byte, now, sent time.Time) {
			o := &s.ops[i]
			rec.attempted++
			good := replyOK(reply)
			switch o.kind {
			case opSet:
				if good {
					r.final[o.obj] = o.p
					rec.sets++
				}
			case opNearby:
				n, valid := scanHits(reply, objects)
				good = good && valid && n == k
			case opWithin:
				_, valid := scanHits(reply, objects)
				good = good && valid
			}
			if !good {
				rec.failed++
			}
			if spans != nil {
				spans.add(clientSpanName[o.kind], sent, now, int64(c)<<32|int64(i))
			}
			if !record {
				return
			}
			smp := sample{at: int64(now.Sub(start)), lat: int64(now.Sub(sent))}
			if o.kind == opSet {
				rec.mut = append(rec.mut, smp)
			} else {
				rec.qry = append(rec.qry, smp)
			}
		}
		for time.Now().Before(deadline) {
			end := min(rec.cursor+r.spec.depth, len(s.ops))
			if err := w.pipeline(s, rec.cursor, end, r.spec.depth, check); err != nil {
				return err
			}
			rec.cursor = end % len(s.ops)
		}
		return nil
	})
}

var idKey = []byte(`"id":"`)

// scanHits counts the hits of a NEARBY/WITHIN reply and checks that every
// returned ID names an object of the population. It scans bytes instead
// of decoding JSON: it runs once per reply on the measured path and shares
// the machine's cores with the server.
func scanHits(reply []byte, objects int) (n int, valid bool) {
	valid = true
	for {
		i := bytes.Index(reply, idKey)
		if i < 0 {
			return n, valid
		}
		reply = reply[i+len(idKey):]
		n++
		if len(reply) < 9 || reply[0] != 'o' || reply[8] != '"' {
			valid = false
			continue
		}
		id := 0
		for _, ch := range reply[1:8] {
			if ch < '0' || ch > '9' {
				valid = false
				break
			}
			id = id*10 + int(ch-'0')
		}
		if id >= objects {
			valid = false
		}
	}
}

// sliceCount is the number of equal slices a measured window is cut into.
// Every throughput and latency metric is computed per slice and the median
// over slices is reported, so that one scheduler or GC stall moves one
// slice, not the run.
const sliceCount = 6

func (r *trackRun) summarise(res *result, serverCPU time.Duration, rssMB float64) {
	window := r.cfg.window()
	sliceNs := int64(window) / sliceCount
	perSlice := func(kind func(*connRec) []sample) (kops, p50, p99 []float64, n int, tail bool) {
		lats := make([][]int64, sliceCount)
		for c := range r.recs {
			for _, s := range kind(&r.recs[c]) {
				if k := s.at / sliceNs; k < sliceCount {
					lats[k] = append(lats[k], s.lat)
				}
			}
		}
		for _, l := range lats {
			slices.Sort(l)
			n += len(l)
			kops = append(kops, float64(len(l))/(float64(sliceNs)/1e9)/1e3)
			v50, _ := percentile(l, 0.50)
			v99, _ := percentile(l, 0.99)
			p50 = append(p50, float64(v50)/1e3)
			p99 = append(p99, float64(v99)/1e3)
		}
		// The reported p99 pools the slices' tails through their median,
		// so the ten samples it needs beyond it are counted over the
		// whole window.
		return kops, p50, p99, n, hasTail(n, 0.99)
	}
	mk, m50, m99, mn, mtail := perSlice(func(c *connRec) []sample { return c.mut })
	qk, q50, q99, qn, qtail := perSlice(func(c *connRec) []sample { return c.qry })
	res.set("mut_kops_s", median(mk), mn)
	res.set("query_kops_s", median(qk), qn)
	res.set("mut_p50_us", median(m50), mn)
	res.set("query_p50_us", median(q50), qn)
	res.setTail("mut_p99_us", median(m99), mn, mtail)
	res.setTail("query_p99_us", median(q99), qn, qtail)
	res.set("cpu_us_op", float64(serverCPU.Microseconds())/float64(mn+qn), mn+qn)
	res.set("rss_mb", rssMB, 1)
	for c := range r.recs {
		res.attempted += r.recs[c].attempted
		res.failed += r.recs[c].failed
	}
	res.diag = append(res.diag, tailDiag("mut_p999_us", r.all(func(c *connRec) []sample { return c.mut })),
		tailDiag("query_p999_us", r.all(func(c *connRec) []sample { return c.qry })))
}

func (r *trackRun) all(kind func(*connRec) []sample) []int64 {
	var out []int64
	for c := range r.recs {
		for _, s := range kind(&r.recs[c]) {
			out = append(out, s.lat)
		}
	}
	slices.Sort(out)
	return out
}

// tailDiag formats the ungated p999 diagnostic over the whole window.
func tailDiag(name string, sorted []int64) string {
	v, ok := percentile(sorted, 0.999)
	if !ok {
		return fmt.Sprintf("%s suppressed (n=%d: fewer than %d samples beyond it)", name, len(sorted), minTail)
	}
	return fmt.Sprintf("%s %.1f us (n=%d, whole window, not gated)", name, float64(v)/1e3, len(sorted))
}

// verify is the correctness pass that follows every measured window: a
// FLUSH barrier, then a GET of every object against its last acknowledged
// position, and the server's object count against the population.
func (r *trackRun) verify(st *stack, res *result) error {
	if err := st.ws[0].flushBarrier(); err != nil {
		return err
	}
	lost, err := r.getAll(st)
	if err != nil {
		return err
	}
	res.attempted += len(r.final)
	res.failed += lost
	stats, err := st.ws[0].stats()
	if err != nil {
		return err
	}
	res.attempted++
	if stats.Objects != len(r.final) {
		res.failed++
		res.diag = append(res.diag, fmt.Sprintf("server tracks %d objects, population is %d", stats.Objects, len(r.final)))
	}
	return nil
}

// getAll GETs every object through the connection that owns it and counts
// those whose position is not the last acknowledged one.
func (r *trackRun) getAll(st *stack) (int, error) {
	nc := len(st.ws)
	wrong := make([]int, nc)
	err := eachConn(st.ws, func(c int, w *wire) error {
		gets := &stream{}
		for i := c; i < len(r.final); i += nc {
			off := len(gets.buf)
			gets.buf = appendGet(gets.buf, i)
			gets.ops = append(gets.ops, op{obj: int32(i), off: uint32(off), end: uint32(len(gets.buf))})
		}
		return w.pipeline(gets, 0, len(gets.ops), pipelineDepthBulk, func(i int, reply []byte, _, _ time.Time) {
			var resp struct {
				OK    bool    `json:"ok"`
				Found bool    `json:"found"`
				P     []int64 `json:"p"`
			}
			want := r.final[gets.ops[i].obj]
			if json.Unmarshal(reply, &resp) != nil || !resp.OK || !resp.Found ||
				len(resp.P) != 2 || resp.P[0] != want[0] || resp.P[1] != want[1] {
				wrong[c]++
			}
		})
	})
	if err != nil {
		return 0, fmt.Errorf("verification GETs: %w", err)
	}
	lost := 0
	for _, w := range wrong {
		lost += w
	}
	return lost, nil
}
