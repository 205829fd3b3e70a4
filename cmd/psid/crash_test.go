package main

// The kill-and-restart oracle: the test the WAL exists to pass. A real
// psid process (this test binary re-execed into run(), the standard
// helper-process pattern) serves with -wal and -fsync always while
// writer clients churn SETs, recording the last acknowledged position
// per ID. The process is SIGKILLed mid-churn — no drain, no final
// flush, exactly a crash — restarted over the same directory, and every
// acknowledged write must come back. A write whose connection died
// before the ack is the one allowed ambiguity: it may have committed or
// not, so either its value or the previous acked one is accepted.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wal"
)

// TestCrashHelperProcess is not a test: it is psid. When the oracle
// re-execs the test binary with PSID_CRASH_HELPER=1, this function
// rebuilds os.Args from the marshalled arg list and hands control to
// run(), so the child is byte-for-byte the production main path —
// including the graceful-shutdown wiring the oracle bypasses with
// SIGKILL.
func TestCrashHelperProcess(t *testing.T) {
	if os.Getenv("PSID_CRASH_HELPER") != "1" {
		t.Skip("helper process for the crash oracle; not a standalone test")
	}
	var args []string
	if err := json.Unmarshal([]byte(os.Getenv("PSID_CRASH_ARGS")), &args); err != nil {
		fmt.Fprintf(os.Stderr, "helper: bad PSID_CRASH_ARGS: %v\n", err)
		os.Exit(2)
	}
	os.Args = append([]string{"psid"}, args...)
	// Fresh flag set: the test binary's CommandLine is full of -test.*
	// definitions that are not on the rewritten command line.
	flag.CommandLine = flag.NewFlagSet("psid", flag.ExitOnError)
	os.Exit(run())
}

var (
	servingRE   = regexp.MustCompile(`^psid: serving .* on (127\.0\.0\.1:\d+)`)
	httpRE      = regexp.MustCompile(`\(http (127\.0\.0\.1:\d+)\)`)
	recoveredRE = regexp.MustCompile(`recovered (\d+) objects`)
)

// startPsid re-execs this test binary as a psid serving on an ephemeral
// port with the given WAL directory, and returns the process and its
// bound address (parsed from the serving line, which also carries the
// recovery summary).
func startPsid(t *testing.T, walDir string, extra ...string) (*exec.Cmd, string, string) {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0", "-http", "",
		"-wal", walDir, "-fsync", "always",
		"-maxbatch", "64", "-drain", "10s",
	}, extra...)
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashHelperProcess$")
	cmd.Env = append(os.Environ(), "PSID_CRASH_HELPER=1", "PSID_CRASH_ARGS="+string(enc))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	deadline := time.After(15 * time.Second)
	lineCh := make(chan string, 16)
	go func() {
		defer close(lineCh)
		for sc.Scan() {
			lineCh <- sc.Text()
		}
	}()
	for {
		select {
		case line, ok := <-lineCh:
			if !ok {
				cmd.Process.Kill()
				t.Fatal("psid exited before its serving line")
			}
			if m := servingRE.FindStringSubmatch(line); m != nil {
				// Keep draining stdout so the child never blocks on a
				// full pipe.
				go func() {
					for range lineCh {
					}
				}()
				return cmd, m[1], line
			}
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("timed out waiting for the psid serving line")
		}
	}
}

// ackLog is one writer's view of what the server owes it: the last
// acknowledged position per ID, plus the single write whose ack never
// arrived (connection died mid-round-trip — the only op allowed to land
// on either side of the crash).
type ackLog struct {
	acked    map[string]geom.Point
	inFlight map[string]geom.Point
}

func TestKillRecoveryOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dir := t.TempDir()
	cmd, addr, _ := startPsid(t, dir)

	// Churn: 4 writers on disjoint ID ranges, each cycling 50 IDs
	// through moving positions, recording every ack.
	const writers = 4
	logs := make([]*ackLog, writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := range writers {
		logs[w] = &ackLog{acked: make(map[string]geom.Point), inFlight: make(map[string]geom.Point)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := service.Dial(addr)
			if err != nil {
				t.Errorf("writer %d: dial: %v", w, err)
				return
			}
			defer c.Close()
			al := logs[w]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("w%d-%d", w, i%50)
				p := geom.Pt2(int64(w*1000+i), int64(i%997))
				if err := c.Set(id, []int64{p[0], p[1]}); err != nil {
					// The kill raced this round trip: the op may or may
					// not have committed before the process died.
					al.inFlight[id] = p
					return
				}
				al.acked[id] = p
			}
		}()
	}

	// Let the churn build real state, then kill without ceremony. Just
	// before: -fsync always must have reached the server as durable acks,
	// each a journaled and synced window.
	time.Sleep(700 * time.Millisecond)
	sc, err := service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Stats()
	sc.Close()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if st.WAL == nil || !st.WAL.DurableAcks || st.WAL.Appends == 0 || st.WAL.Fsyncs == 0 {
		t.Fatalf("wal block before the kill = %+v, want durable acks with appends and fsyncs", st.WAL)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	close(stop)
	wg.Wait()

	var total int
	for _, al := range logs {
		total += len(al.acked)
	}
	if total == 0 {
		t.Fatal("no writes were acknowledged before the kill; oracle proved nothing")
	}

	// Restart over the same directory: recovery must replay every
	// acknowledged write (fsync=always: ack means on disk).
	cmd2, addr2, serving := startPsid(t, dir)
	defer sigtermWait(t, cmd2)
	t.Logf("restart: %s", serving)
	// The churn only SETs, so recovery loads at least one object per
	// acknowledged ID.
	if m := recoveredRE.FindStringSubmatch(serving); m == nil {
		t.Errorf("restart's serving line carries no recovery summary: %s", serving)
	} else if n, _ := strconv.Atoi(m[1]); n < total {
		t.Errorf("restart recovered %d objects, %d IDs were acknowledged: %s", n, total, serving)
	}
	c, err := service.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for w, al := range logs {
		for id, want := range al.acked {
			got, found, err := c.Get(id)
			if err != nil {
				t.Fatalf("GET %s: %v", id, err)
			}
			if amb, ok := al.inFlight[id]; ok {
				// The unacknowledged overwrite may have won instead.
				if found && (geom.Pt2(got[0], got[1]) == want || geom.Pt2(got[0], got[1]) == amb) {
					continue
				}
				t.Errorf("writer %d: %s = %v (found=%t), want %v or in-flight %v", w, id, got, found, want, amb)
				continue
			}
			if !found || geom.Pt2(got[0], got[1]) != want {
				t.Errorf("writer %d: acknowledged write lost: %s = %v (found=%t), want %v", w, id, got, found, want)
			}
		}
		// An ID whose only write was in flight may exist or not, but if
		// it exists it must hold the in-flight value.
		for id, amb := range al.inFlight {
			if _, wasAcked := al.acked[id]; wasAcked {
				continue
			}
			got, found, err := c.Get(id)
			if err != nil {
				t.Fatalf("GET %s: %v", id, err)
			}
			if found && geom.Pt2(got[0], got[1]) != amb {
				t.Errorf("writer %d: %s = %v, want absent or in-flight %v", w, id, got, amb)
			}
		}
	}
}

// TestProbeWiring pins what main wires between flags and layers, on the
// real binary: -http binds the probe listener the serving line reports,
// -pprof mounts the profiles and the gc block of /stats, -slowlog arms the
// ring, and one registry reaches the Collection and the server, so a
// single /metrics scrape carries both. The endpoints'
// own behaviour is internal/service's to test; here each must merely be
// reachable and fed.
func TestProbeWiring(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	cmd, addr, serving := startPsid(t, "", "-http", "127.0.0.1:0", "-pprof", "-slowlog", "1ns")
	defer sigtermWait(t, cmd)
	m := httpRE.FindStringSubmatch(serving)
	if m == nil {
		t.Fatalf("serving line names no http address: %s", serving)
	}
	base := "http://" + m[1]
	c, err := service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 20 {
		if err := c.Set(fmt.Sprintf("p%d", i), []int64{int64(i * 1000), int64(i)}); err != nil {
			t.Fatalf("SET: %v", err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatalf("FLUSH: %v", err)
	}
	if hits, err := c.Nearby([]int64{0, 0}, 3); err != nil || len(hits) != 3 {
		t.Fatalf("NEARBY = %v, %v; want 3 hits", hits, err)
	}
	c.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d (%v): %s", path, resp.StatusCode, err, body)
		}
		return string(body)
	}
	get("/healthz")
	get("/debug/pprof/heap")
	var st service.StatsPayload
	if err := json.Unmarshal([]byte(get("/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if st.GC == nil || st.GC.Mallocs == 0 {
		t.Errorf("/stats gc block = %+v, want malloc counts under -pprof", st.GC)
	}
	metrics := get("/metrics")
	samples, err := obs.ParseText(strings.NewReader(metrics))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if samples[`psi_flush_total{layer="collection"}`] == 0 {
		t.Error(`/metrics: psi_flush_total{layer="collection"} did not advance over a FLUSH`)
	}
	for _, series := range []string{
		`psi_query_duration_ns_bucket{op="SET"`,
		`# TYPE psi_query_duration_ns histogram`,
	} {
		if !strings.Contains("\n"+metrics, "\n"+series) {
			t.Errorf("/metrics has no line starting %s", series)
		}
	}
	var spans []map[string]any
	if err := json.Unmarshal([]byte(get("/debug/flushtrace")), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || spans[0]["layer"] == nil || spans[0]["apply_ns"] == nil {
		t.Errorf("/debug/flushtrace = %v, want spans with layer and apply_ns", spans)
	}
	var slow []map[string]any
	if err := json.Unmarshal([]byte(get("/debug/slowlog")), &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow) == 0 || slow[0]["cmd"] == nil || slow[0]["shards"] == nil {
		t.Errorf("/debug/slowlog = %v, want entries with cmd and shards under -slowlog 1ns", slow)
	}
	// psid serves one tree: a query visits one shard.
	nearby := 0
	for _, e := range slow {
		if e["cmd"] == "NEARBY" {
			nearby++
			if e["shards"] != 1.0 {
				t.Errorf("/debug/slowlog NEARBY entry %v, want shards 1", e)
			}
		}
	}
	if nearby == 0 {
		t.Errorf("/debug/slowlog = %v, want the NEARBY under -slowlog 1ns", slow)
	}
}

// TestServingLineNamesTheReadMode: psid's serving line names the index it
// serves, bare, and the read mode the server runs, and /stats agrees — two
// versions sharing one tree over a copy-on-write family (P-Orth here), one
// version and no cow block over a baseline.
func TestServingLineNamesTheReadMode(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	for _, tc := range []struct {
		args     []string
		reads    string
		versions int
	}{
		{[]string{"-index", "P-Orth"}, "serving P-Orth (snapshot reads)", 2},
		{[]string{"-index", "Pkd-Tree"}, "serving Pkd-Tree (locked reads)", 1},
	} {
		cmd, _, serving := startPsid(t, "", append([]string{"-http", "127.0.0.1:0"}, tc.args...)...)
		if !strings.Contains(serving, tc.reads) {
			t.Errorf("%v: serving line %q, want %s", tc.args, serving, tc.reads)
		}
		m := httpRE.FindStringSubmatch(serving)
		if m == nil {
			t.Fatalf("serving line names no http address: %s", serving)
		}
		resp, err := http.Get("http://" + m[1] + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st service.StatsPayload
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Versions != tc.versions || (st.Cow != nil) != (tc.versions == 2) {
			t.Errorf("%v: /stats versions %d, cow %+v; want %d versions and a cow block iff 2", tc.args, st.Versions, st.Cow, tc.versions)
		}
		sigtermWait(t, cmd)
	}
}

// TestBadFlagsExitTwo: a flag value no index can be built over, or one
// that would quietly leave writes unflushed or every shutdown forced, is
// command-line input, not programmer error — psid must answer it the way
// it answers -dims 4, with one "psid:" line and exit status 2, never with
// the constructor's panic, and before binding anything.
func TestBadFlagsExitTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	for _, args := range [][]string{
		{"-dims", "4"},
		{"-index", "no-such-tree"},
		{"-fsync", "sometimes"},
		{"-side", "-5"},
		{"-side", "4000000000000"},
		{"-index", "P-Orth", "-side", "3000000000"}, // past int32, P-Orth's stored range
		// Past int32, the Collection's stored range: every family, the
		// baselines too.
		{"-index", "Pkd-Tree", "-side", "3000000000"},
		// Inside int32, but with a squared diagonal past int64.
		{"-dims", "3", "-index", "P-Orth", "-side", "2000000000"},
		{"-dims", "3", "-index", "Zd-Tree"}, // the default side is past 21 bits
		{"-flush-interval", "-1ms"},         // not "no background flusher"
		{"-drain", "-1s"},                   // every SIGTERM would end forced, exit 1
		{"-drain", "0s"},
		{"-maxbatch", "0"}, // not the Collection's default
		{"-maxline", "-1"},
		{"-snapshot-interval", "0s"},
		{"-repl-retain", "-1"}, // not "default"
		{"-max-lag", "-1"},     // not "off"
		{"-slowlog", "-1s"},    // not "off"
	} {
		msg := runPsidExpectingTwo(t, args)
		if !strings.HasPrefix(msg, "psid: ") || strings.Contains(msg, "\n") ||
			strings.Contains(msg, "goroutine ") || strings.Contains(msg, "panic") {
			t.Errorf("psid %v: stderr is not one psid: line:\n%s", args, msg)
		}
	}
}

// TestRemovedFlagsUndefined: psid serves one index and has no read-mode
// switch, so -shards and -locked-reads are unknown flags — exit status 2
// with the flag package's complaint naming them, not a server quietly
// started on a configuration that no longer exists.
func TestRemovedFlagsUndefined(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	for _, args := range [][]string{
		{"-shards", "2"},
		{"-locked-reads"},
	} {
		// The trailing bad -dims stops a psid that still knew the flag
		// before it binds, with a different complaint.
		msg := runPsidExpectingTwo(t, append(args, "-dims", "4"))
		if want := "flag provided but not defined: " + args[0]; !strings.HasPrefix(msg, want) {
			t.Errorf("psid %v: stderr does not start %q:\n%s", args, want, msg)
		}
	}
}

// runPsidExpectingTwo runs psid with args on loopback with no HTTP
// listener, fails the test unless it exits with status 2, and returns its
// stderr without the final newline.
func runPsidExpectingTwo(t *testing.T, args []string) string {
	t.Helper()
	enc, err := json.Marshal(append([]string{"-addr", "127.0.0.1:0", "-http", ""}, args...))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashHelperProcess$")
	cmd.Env = append(os.Environ(), "PSID_CRASH_HELPER=1", "PSID_CRASH_ARGS="+string(enc))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	msg := strings.TrimSuffix(stderr.String(), "\n")
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("psid %v: %v, want exit status 2; stderr:\n%s", args, err, msg)
	}
	return msg
}

// TestSetPastInt32Refused: the Collection stores int32 coordinates over
// every family, so psid refuses a SET past that range with bad_request
// before it is journaled — over a baseline too, whose index
// has no universe of its own. After a drain the log holds the one point
// that was taken, and a restart serves it alone.
func TestSetPastInt32Refused(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dir := t.TempDir()
	args := []string{"-index", "Pkd-Tree"}
	cmd, addr, _ := startPsid(t, dir, args...)
	c, err := service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(service.Request{Op: service.OpSet, ID: "far", P: []int64{5_000_000_000, 7}})
	if err != nil || resp.OK || resp.Code != service.CodeBadRequest {
		t.Fatalf("SET at x = 5·10⁹: %+v, %v; want %s", resp, err, service.CodeBadRequest)
	}
	if err := c.Set("near", []int64{5, 7}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	sigtermWait(t, cmd)

	logged := make(map[string]geom.Point)
	l, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever}, func(o wal.Op) {
		if o.Del {
			delete(logged, o.ID)
		} else {
			logged[strings.Clone(o.ID)] = o.P
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(logged) != 1 || logged["near"] != geom.Pt2(5, 7) {
		t.Fatalf("the log holds %v, want near at [5 7] alone", logged)
	}
	cmd, addr, _ = startPsid(t, dir, args...)
	defer sigtermWait(t, cmd)
	c, err = service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, found, err := c.Get("far"); err != nil || found {
		t.Fatalf("GET far after restart: found=%t, %v", found, err)
	}
}

// TestThreeDimensionsServed: psid -dims 3 keeps Z through the whole stack.
// Objects share their X and Y and differ only in Z, so a table that kept
// two coordinates would hand back Z = 0 on GET and one ID for several
// NEARBY hits.
func TestThreeDimensionsServed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	cmd, addr, _ := startPsid(t, "", "-dims", "3", "-side", "1000000")
	defer sigtermWait(t, cmd)
	c, err := service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oracle := make(map[string][]int64)
	for i := range 12 {
		id := fmt.Sprintf("z%02d", i)
		oracle[id] = []int64{int64(1000 + 100*(i%3)), 2000, int64(10_000 * (i + 1))}
		if err := c.Set(id, oracle[id]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for id, want := range oracle {
		if p, found, err := c.Get(id); err != nil || !found || !slices.Equal(p, want) {
			t.Fatalf("GET %s = %v (%t, %v), want %v", id, p, found, err, want)
		}
	}
	q := []int64{1000, 2000, 55_000}
	dist := func(p []int64) (d int64) {
		for i := range p {
			d += (p[i] - q[i]) * (p[i] - q[i])
		}
		return d
	}
	var want []int64
	for _, p := range oracle {
		want = append(want, dist(p))
	}
	slices.Sort(want)
	const k = 5
	hits, err := c.Nearby(q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != k {
		t.Fatalf("NEARBY returned %d hits, want %d", len(hits), k)
	}
	seen := make(map[string]bool)
	for i, h := range hits {
		if seen[h.ID] || !slices.Equal(h.P, oracle[h.ID]) || dist(h.P) != want[i] {
			t.Fatalf("NEARBY hit %d: %s at %v; oracle %v, distance² %d", i, h.ID, h.P, oracle[h.ID], want[i])
		}
		seen[h.ID] = true
	}
}
