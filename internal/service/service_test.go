package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sfc"
	"repro/internal/shard"
	"repro/internal/spactree"
	"repro/internal/wal"
)

const testSide = int64(1000)

func testUniverse() geom.Box { return geom.UniverseBox(2, testSide) }

func newTestIndex() core.Index { return spactree.NewSPaC(sfc.Hilbert, 2, testUniverse()) }

func newTestSharded() core.Index {
	return shard.New(shard.Options{
		Dims:     2,
		Universe: testUniverse(),
		Shards:   4,
		New:      func(dims int, u geom.Box) core.Index { return spactree.NewSPaC(sfc.Hilbert, dims, u) },
	})
}

// startServer runs a Server over idx and tears it down with the test.
// FlushInterval is disabled so visibility tests control flushes
// explicitly (queries only see FLUSHed state).
func startServer(t *testing.T, idx core.Index, opts Options) *Server {
	t.Helper()
	if opts.FlushInterval == 0 {
		opts.FlushInterval = -1
	}
	s := New(idx, opts)
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func dialT(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCommandRoundTrip(t *testing.T) {
	s := startServer(t, newTestIndex(), Options{})
	c := dialT(t, s)

	if err := c.Set("a", []int64{10, 10}); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("b", []int64{20, 20}); err != nil {
		t.Fatal(err)
	}
	// GET is read-your-writes: visible before any flush.
	p, found, err := c.Get("a")
	if err != nil || !found || p[0] != 10 || p[1] != 10 {
		t.Fatalf("Get(a) = %v %v %v, want [10 10] true", p, found, err)
	}
	// Geometric queries only see flushed state.
	hits, err := c.Nearby([]int64{0, 0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("Nearby before flush = %v, want empty", hits)
	}
	applied, err := c.Flush()
	if err != nil || applied != 2 {
		t.Fatalf("Flush = %d, %v, want 2 inserts", applied, err)
	}
	hits, err = c.Nearby([]int64{0, 0}, 1)
	if err != nil || len(hits) != 1 || hits[0].ID != "a" {
		t.Fatalf("Nearby = %v, %v, want [a]", hits, err)
	}
	hits, err = c.Within([]int64{0, 0}, []int64{100, 100})
	if err != nil || len(hits) != 2 {
		t.Fatalf("Within = %v, %v, want both objects", hits, err)
	}
	if err := c.Del("a"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := c.Get("a"); found {
		t.Fatal("Get(a) after Del should miss (read-your-writes)")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops[OpSet].Count != 2 || st.Conns != 1 {
		t.Fatalf("stats = %+v, want 2 SETs on 1 conn", st)
	}
}

// raw sends one raw line and decodes the one-line reply.
func raw(t *testing.T, conn net.Conn, br *bufio.Reader, line string) Response {
	t.Helper()
	if _, err := conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	reply, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal([]byte(reply), &resp); err != nil {
		t.Fatalf("bad response line %q: %v", reply, err)
	}
	return resp
}

func TestMalformedAndInvalidCommands(t *testing.T) {
	s := startServer(t, newTestIndex(), Options{})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	cases := []struct {
		line string
		code string
	}{
		{`{not json`, CodeBadRequest},
		{`"a bare string"`, CodeBadRequest},
		{`{"op":"NUKE"}`, CodeBadRequest},
		{`{"op":"SET","p":[1,2]}`, CodeBadRequest},            // missing id
		{`{"op":"SET","id":"a","p":[1,2,3]}`, CodeBadRequest}, // 3 coords on a 2D server
		{`{"op":"SET","id":"a"}`, CodeBadRequest},             // no point
		{`{"op":"NEARBY","p":[1,2],"k":0}`, CodeBadRequest},
		{`{"op":"NEARBY","p":[1,2],"k":-3}`, CodeBadRequest},
		{`{"op":"NEARBY","p":[1,2],"k":4611686018427387904}`, CodeBadRequest}, // O(k) alloc guard
		{``, CodeBadRequest},                                                  // blank line still gets its one response
		{`{"op":"WITHIN","lo":[5,5],"hi":[1,9]}`, CodeBadRequest},             // inverted box
		{`{"op":"WITHIN","lo":[5],"hi":[9,9]}`, CodeBadRequest},
		{`{"op":"GET"}`, CodeBadRequest},
		{`{"op":"DEL"}`, CodeBadRequest},
	}
	for _, tc := range cases {
		resp := raw(t, conn, br, tc.line)
		if resp.OK || resp.Code != tc.code {
			t.Errorf("%s -> %+v, want code %s", tc.line, resp, tc.code)
		}
	}
	// The connection survives every reject, and lowercase ops work.
	if resp := raw(t, conn, br, `{"op":"set","id":"ok","p":[1,2]}`); !resp.OK {
		t.Fatalf("valid SET after rejects failed: %+v", resp)
	}
	if resp := raw(t, conn, br, `{"op":"get","id":"ok"}`); !resp.OK || !resp.Found {
		t.Fatalf("GET after rejects = %+v", resp)
	}
	if got := s.Stats().BadLines; got != 4 {
		t.Fatalf("BadLines = %d, want 4 (two parse failures + unknown op + blank line)", got)
	}
}

// TestSetOutsideUniverseRefused: a SET whose point lies outside the
// index's universe — past int32, which the SPaC family cannot store, or
// just past the edge — is answered bad_request and never enqueued, so
// neither the next flush nor a restart from the WAL meets it.
func TestSetOutsideUniverseRefused(t *testing.T) {
	outside := []string{
		`{"op":"SET","id":"far","p":[3000000000,5]}`,
		`{"op":"SET","id":"far","p":[5,-3000000000]}`,
		`{"op":"SET","id":"far","p":[1001,5]}`,
		`{"op":"SET","id":"far","p":[5,-1]}`,
	}
	dir := t.TempDir()
	servers := []*Server{
		startServer(t, newTestSharded(), Options{}),
		startDurable(t, dir, Options{WALFsync: wal.FsyncAlways}), // an unsharded SPaC-H
	}
	for i, s := range servers {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		for _, line := range outside {
			if resp := raw(t, conn, br, line); resp.OK || resp.Code != CodeBadRequest {
				t.Fatalf("server %d: %s -> %+v, want %s", i, line, resp, CodeBadRequest)
			}
		}
		for _, line := range []string{
			`{"op":"SET","id":"near","p":[1000,0]}`,
			`{"op":"FLUSH"}`,
			`{"op":"GET","id":"far"}`,
		} {
			if resp := raw(t, conn, br, line); !resp.OK || resp.Found {
				t.Fatalf("server %d: %s -> %+v", i, line, resp)
			}
		}
		if n := s.Collection().Len(); n != 1 {
			t.Fatalf("server %d holds %d objects after the flush, want 1", i, n)
		}
		conn.Close()
	}
	shutdownT(t, servers[1])
	s := startDurable(t, dir, Options{WALFsync: wal.FsyncAlways})
	c := dialT(t, s)
	if p, ok, err := c.Get("near"); err != nil || !ok || p[0] != 1000 || p[1] != 0 {
		t.Fatalf("Get(near) after restart = %v, %t, %v", p, ok, err)
	}
	if _, ok, err := c.Get("far"); err != nil || ok {
		t.Fatalf("Get(far) after restart: found=%t err=%v", ok, err)
	}
}

func TestOversizedLine(t *testing.T) {
	s := startServer(t, newTestIndex(), Options{MaxLineBytes: 256})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// One giant line (bigger than the 64 KiB server read buffer, so the
	// accumulate-and-discard path runs, not just the single-slice path).
	big := `{"op":"SET","id":"` + strings.Repeat("x", 100<<10) + `","p":[1,2]}`
	resp := raw(t, conn, br, big)
	if resp.OK || resp.Code != CodeTooLarge {
		t.Fatalf("oversized line -> %+v, want %s", resp, CodeTooLarge)
	}
	// A line just over the limit that fits the read buffer.
	resp = raw(t, conn, br, `{"op":"SET","id":"`+strings.Repeat("y", 300)+`","p":[1,2]}`)
	if resp.OK || resp.Code != CodeTooLarge {
		t.Fatalf("slightly-oversized line -> %+v, want %s", resp, CodeTooLarge)
	}
	// The protocol resynchronizes at the newline: the next command works.
	if resp := raw(t, conn, br, `{"op":"SET","id":"a","p":[3,4]}`); !resp.OK {
		t.Fatalf("SET after oversized lines failed: %+v", resp)
	}
	if p, found, _ := dialT(t, s).Get("a"); !found || p[0] != 3 {
		t.Fatal("state diverged after oversized-line recovery")
	}
}

func TestClientDisconnectMidBatch(t *testing.T) {
	s := startServer(t, newTestIndex(), Options{MaxBatch: 1 << 20})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	// Enqueue acknowledged SETs, then vanish without flushing — and leave
	// a half-written line on the wire for good measure.
	for i := 0; i < 10; i++ {
		if resp := raw(t, conn, br, fmt.Sprintf(`{"op":"SET","id":"d%d","p":[%d,%d]}`, i, i, i)); !resp.OK {
			t.Fatalf("SET %d: %+v", i, resp)
		}
	}
	conn.Write([]byte(`{"op":"SET","id":"torn`)) // no newline, never completed
	conn.Close()

	// The acknowledged ops are in the coalescing log; any other client's
	// FLUSH commits them. The torn line must be dropped, not applied.
	c := dialT(t, s)
	waitCond(t, func() bool { st, err := c.Stats(); return err == nil && st.Conns == 1 })
	if applied, err := c.Flush(); err != nil || applied != 10 {
		t.Fatalf("Flush after disconnect = %d, %v, want the 10 acknowledged SETs", applied, err)
	}
	hits, err := c.Within([]int64{0, 0}, []int64{testSide, testSide})
	if err != nil || len(hits) != 10 {
		t.Fatalf("Within = %d hits, %v, want 10", len(hits), err)
	}
}

// waitCond polls for an asynchronous server-side transition (e.g. a
// closed connection being reaped).
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentOracle is the end-to-end serving correctness test: many
// writer connections race SETs/DELs on disjoint ID slices while reader
// connections hammer NEARBY/WITHIN, with the identical op stream applied
// to a direct in-process Collection oracle. After a FLUSH barrier the
// server state must agree exactly with the oracle. Run under -race in CI.
func TestConcurrentOracle(t *testing.T) {
	s := startServer(t, newTestSharded(), Options{MaxBatch: 64})
	oracle := collection.New(spactree.NewSPaC(sfc.Hilbert, 2, testUniverse()), collection.Options{MaxBatch: 64})
	defer oracle.Close()

	const writers, readers, opsPerWriter, idsPerWriter = 8, 4, 400, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dialT(t, s)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, rng.Intn(idsPerWriter))
				if rng.Float64() < 0.15 {
					if err := c.Del(id); err != nil {
						t.Error(err)
						return
					}
					oracle.Remove(id)
					continue
				}
				p := []int64{rng.Int63n(testSide + 1), rng.Int63n(testSide + 1)}
				if err := c.Set(id, p); err != nil {
					t.Error(err)
					return
				}
				oracle.Set(id, geom.Pt2(p[0], p[1]))
			}
		}(w)
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			c := dialT(t, s)
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := []int64{rng.Int63n(testSide + 1), rng.Int63n(testSide + 1)}
				if i%2 == 0 {
					hits, err := c.Nearby(q, 10)
					if err != nil {
						t.Error(err)
						return
					}
					for _, h := range hits {
						if h.ID == "" || len(h.P) != 2 {
							t.Errorf("malformed hit %+v", h)
							return
						}
					}
				} else {
					lo := []int64{max(0, q[0]-50), max(0, q[1]-50)}
					hi := []int64{min(testSide, q[0]+50), min(testSide, q[1]+50)}
					hits, err := c.Within(lo, hi)
					if err != nil {
						t.Error(err)
						return
					}
					for _, h := range hits {
						if h.P[0] < lo[0] || h.P[0] > hi[0] || h.P[1] < lo[1] || h.P[1] > hi[1] {
							t.Errorf("hit %+v outside queried box [%v,%v]", h, lo, hi)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}

	// Barrier both sides, then compare the full state.
	c := dialT(t, s)
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Validate(); err != nil {
		t.Fatal(err)
	}
	want := entriesKey(oracle.WithinIDs(testUniverse()))
	gotHits, err := c.Within([]int64{0, 0}, []int64{testSide, testSide})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(gotHits))
	for i, h := range gotHits {
		got[i] = fmt.Sprintf("%s@(%d,%d)", h.ID, h.P[0], h.P[1])
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("server has %d objects, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("state mismatch at %d: server %s, oracle %s", i, got[i], want[i])
		}
	}
	// Spot-check GET against the oracle for every live and dead ID.
	for w := 0; w < writers; w++ {
		for i := 0; i < idsPerWriter; i++ {
			id := fmt.Sprintf("w%d-%d", w, i)
			wantP, wantLive := oracle.Get(id)
			p, found, err := c.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if found != wantLive {
				t.Fatalf("Get(%s): server found=%t, oracle %t", id, found, wantLive)
			}
			if found && (p[0] != wantP[0] || p[1] != wantP[1]) {
				t.Fatalf("Get(%s): server %v, oracle %v", id, p, wantP)
			}
		}
	}
}

func entriesKey(es []collection.Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%s@(%d,%d)", e.ID, e.Point[0], e.Point[1])
	}
	sort.Strings(out)
	return out
}

func TestGracefulShutdownFlushesPending(t *testing.T) {
	s := New(newTestIndex(), Options{MaxBatch: 1 << 20, FlushInterval: -1})
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := c.Set(fmt.Sprintf("g%d", i), []int64{int64(i), int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// No flush happened yet (batch threshold not reached, no ticker).
	if got := s.Stats().Flushes; got != 0 {
		t.Fatalf("pre-shutdown flushes = %d, want 0", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	c.Close()
	// The final flush committed every acknowledged SET.
	coll := s.Collection()
	if n := coll.Len(); n != 25 {
		t.Fatalf("objects after shutdown = %d, want 25", n)
	}
	// The listener really is down.
	if _, err := Dial(s.Addr().String()); err == nil {
		t.Fatal("Dial after Shutdown should fail")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := New(newTestIndex(), Options{})
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	c := dialT(t, s)
	if err := c.Set("h", []int64{1, 2}); err != nil {
		t.Fatal(err)
	}

	base := "http://" + s.HTTPAddr().String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("/healthz = %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st StatsPayload
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/stats body %s: %v", body, err)
	}
	if st.Ops[OpSet].Count != 1 {
		t.Fatalf("/stats = %+v, want 1 SET recorded", st)
	}
}

func TestStatsLatencyHistogram(t *testing.T) {
	var h obs.Hist
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
	var empty obs.Hist
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}
