package main

// Replication chaos oracles: real psid processes (the crash_test re-exec
// harness) wired into leader/follower topologies, then killed and
// partitioned without ceremony. The convergence oracle is exact because
// writers record every acknowledged op: after quiesce, a follower must
// hold byte-for-byte the acknowledged state — same IDs, same positions —
// and must get there without re-bootstrapping or re-applying a window
// when its resume point survives (kill -9, torn TCP streams). A leader
// wipe is the one legitimate re-bootstrap, and the oracle flips to
// asserting exactly that.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"regexp"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/service"
)

var replLeaderRE = regexp.MustCompile(`^psid: replication leader on (127\.0\.0\.1:\d+)`)

// startLeaderPsid re-execs a psid leader with a replication listener,
// returning the process, the command address, and the bound replication
// address. replAddr "127.0.0.1:0" picks an ephemeral port.
func startLeaderPsid(t *testing.T, walDir, replAddr string, extra ...string) (*exec.Cmd, string, string) {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0", "-http", "",
		"-wal", walDir, "-fsync", "always",
		"-maxbatch", "64", "-drain", "10s",
		"-repl", replAddr,
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
	var addr, repl string
	for addr == "" || repl == "" {
		select {
		case line, ok := <-lineCh:
			if !ok {
				cmd.Process.Kill()
				t.Fatal("psid leader exited before its serving lines")
			}
			if m := servingRE.FindStringSubmatch(line); m != nil {
				addr = m[1]
			}
			if m := replLeaderRE.FindStringSubmatch(line); m != nil {
				repl = m[1]
			}
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("timed out waiting for the psid leader serving lines")
		}
	}
	go func() { // keep draining so the child never blocks on a full pipe
		for range lineCh {
		}
	}()
	return cmd, addr, repl
}

// startFollowerPsid re-execs a psid follower of the given replication
// address (crash_test's startPsid with the replica flags).
func startFollowerPsid(t *testing.T, walDir, leaderRepl, id string) (*exec.Cmd, string) {
	t.Helper()
	cmd, addr, _ := startPsid(t, walDir, "-replica-of", leaderRepl, "-repl-id", id)
	return cmd, addr
}

// sigtermWait asks psid to drain and requires the graceful exit: status
// 0 means the drain finished inside -drain and the final flush (and WAL
// snapshot + close) ran.
func sigtermWait(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Errorf("SIGTERM: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("psid did not exit 0 after SIGTERM: %v", err)
	}
}

// replStats fetches the replication block over the wire, failing the
// test if the server does not report one.
func replStats(t *testing.T, c *service.Client) *service.ReplPayload {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if st.Repl == nil {
		t.Fatal("server reports no replication block")
	}
	return st.Repl
}

// waitFollowerAt polls the follower's STATS until its applied sequence
// reaches want with zero lag.
func waitFollowerAt(t *testing.T, fc *service.Client, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		fs := replStats(t, fc).Follower
		if fs != nil && fs.AppliedSeq == want && fs.LagWindows == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached seq %d: %+v", want, fs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// leaderSeq reads the leader's replication head over the wire.
func leaderSeq(t *testing.T, lc *service.Client) uint64 {
	t.Helper()
	ls := replStats(t, lc).Leader
	if ls == nil {
		t.Fatal("leader reports no leader block")
	}
	return ls.LastSeq
}

// oracleChurn drives writers of SET/DEL churn against the leader on
// disjoint ID ranges for dur, recording every acknowledged op, and
// returns the exact acknowledged end state. Every ack under
// fsync=always is a committed, journaled window, so the merged map IS
// the replicated truth.
func oracleChurn(t *testing.T, addr string, writers, idsPerWriter int, dur time.Duration) map[string]geom.Point {
	t.Helper()
	return oracleChurnIDs(t, addr, "w", writers, idsPerWriter, dur)
}

// oracleChurnIDs is oracleChurn over a caller-chosen ID prefix, so
// churn phases on different timelines write disjoint namespaces and
// their oracles merge exactly (a map union cannot represent "phase 2
// deleted a phase-1 ID", so the phases must not share IDs).
func oracleChurnIDs(t *testing.T, addr, prefix string, writers, idsPerWriter int, dur time.Duration) map[string]geom.Point {
	t.Helper()
	type wlog struct {
		state map[string]geom.Point
	}
	logs := make([]wlog, writers)
	var wg sync.WaitGroup
	stopAt := time.Now().Add(dur)
	for w := range writers {
		logs[w].state = make(map[string]geom.Point)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := service.Dial(addr)
			if err != nil {
				t.Errorf("writer %d: dial: %v", w, err)
				return
			}
			defer c.Close()
			st := logs[w].state
			for i := 0; time.Now().Before(stopAt); i++ {
				id := fmt.Sprintf("%s%d-%d", prefix, w, i%idsPerWriter)
				if i%7 == 3 { // mix deletes through the churn
					if err := c.Del(id); err != nil {
						t.Errorf("writer %d: DEL %s: %v", w, id, err)
						return
					}
					delete(st, id)
					continue
				}
				p := geom.Pt2(int64(w*10_000+i), int64(i%997))
				if err := c.Set(id, []int64{p[0], p[1]}); err != nil {
					t.Errorf("writer %d: SET %s: %v", w, id, err)
					return
				}
				st[id] = p
			}
		}()
	}
	wg.Wait()
	oracle := make(map[string]geom.Point)
	for _, l := range logs {
		for id, p := range l.state {
			oracle[id] = p
		}
	}
	if len(oracle) == 0 {
		t.Fatal("churn acknowledged nothing; oracle proved nothing")
	}
	return oracle
}

// fullState reads a server's entire object set through one WITHIN over
// the universe.
func fullState(t *testing.T, c *service.Client) map[string]geom.Point {
	t.Helper()
	hits, err := c.Within([]int64{0, 0}, []int64{1_000_000_000, 1_000_000_000})
	if err != nil {
		t.Fatalf("WITHIN: %v", err)
	}
	out := make(map[string]geom.Point, len(hits))
	for _, h := range hits {
		out[h.ID] = geom.Pt2(h.P[0], h.P[1])
	}
	return out
}

// assertState requires the server's full state and per-ID GETs to match
// the oracle exactly.
func assertState(t *testing.T, c *service.Client, oracle map[string]geom.Point, who string) {
	t.Helper()
	got := fullState(t, c)
	if len(got) != len(oracle) {
		t.Errorf("%s: %d objects, oracle has %d", who, len(got), len(oracle))
	}
	for id, want := range oracle {
		if got[id] != want {
			t.Errorf("%s: WITHIN %s = %v, want %v", who, id, got[id], want)
		}
		p, found, err := c.Get(id)
		if err != nil {
			t.Fatalf("%s: GET %s: %v", who, id, err)
		}
		if !found || geom.Pt2(p[0], p[1]) != want {
			t.Errorf("%s: GET %s = %v (found=%t), want %v", who, id, p, found, want)
		}
	}
	for id := range got {
		if _, ok := oracle[id]; !ok {
			t.Errorf("%s: extra object %s (deleted on the leader or never acknowledged)", who, id)
		}
	}
}

// TestFollowerConvergenceOracle is the tentpole proof: multi-writer
// churn (SETs and DELs) on a real leader process, two real follower
// processes streaming it live; after quiesce both followers' full state
// and per-ID reads exactly match the acknowledged-write oracle.
func TestFollowerConvergenceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	leader, addr, repl := startLeaderPsid(t, t.TempDir(), "127.0.0.1:0")
	defer sigtermWait(t, leader)
	f1, f1addr := startFollowerPsid(t, t.TempDir(), repl, "oracle-f1")
	defer sigtermWait(t, f1)
	f2, f2addr := startFollowerPsid(t, t.TempDir(), repl, "oracle-f2")
	defer sigtermWait(t, f2)

	// The split topology under load: writes to the leader while a reader
	// rides follower 1, whose queries must be served as windows apply.
	reads := make(chan int)
	stopReads := make(chan struct{})
	go func() {
		n := 0
		defer func() { reads <- n }()
		rc, err := service.Dial(f1addr)
		if err != nil {
			t.Errorf("reader: dial: %v", err)
			return
		}
		defer rc.Close()
		for ; ; n++ {
			select {
			case <-stopReads:
				return
			default:
			}
			if _, err := rc.Nearby([]int64{int64(n % 40_000), 500}, 5); err != nil {
				t.Errorf("reader: NEARBY on the follower mid-churn: %v", err)
				return
			}
		}
	}()
	oracle := oracleChurn(t, addr, 4, 50, 700*time.Millisecond)
	close(stopReads)
	if n := <-reads; n == 0 {
		t.Error("the follower served no query during the churn")
	}

	lc, err := service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	head := leaderSeq(t, lc)
	for i, faddr := range []string{f1addr, f2addr} {
		fc, err := service.Dial(faddr)
		if err != nil {
			t.Fatal(err)
		}
		waitFollowerAt(t, fc, head, 15*time.Second)
		if rs := replStats(t, fc); rs.Role != "follower" || !rs.Follower.Connected {
			t.Errorf("follower %d reports role %q, connected=%t", i+1, rs.Role, rs.Follower.Connected)
		}
		assertState(t, fc, oracle, fmt.Sprintf("follower %d", i+1))
		fc.Close()
	}
	// The leader itself must equal the oracle too — otherwise matching
	// followers would only prove shared wrongness.
	assertState(t, lc, oracle, "leader")
	// And it sees both of them, by the identity -repl-id gave each.
	rs := replStats(t, lc)
	if rs.Role != "leader" || rs.Leader.Connected != 2 || len(rs.Leader.Followers) != 2 {
		t.Errorf("leader reports role %q with %d connected of %d followers, want leader 2/2",
			rs.Role, rs.Leader.Connected, len(rs.Leader.Followers))
	}
	for _, fi := range rs.Leader.Followers {
		if fi.ID != "oracle-f1" && fi.ID != "oracle-f2" {
			t.Errorf("leader lists follower %q, want oracle-f1 and oracle-f2", fi.ID)
		}
	}
}

// TestChaosFollowerKill SIGKILLs a follower mid-stream. Restarted over
// its own WAL directory it must resume from its recovered sequence —
// zero re-bootstraps, zero duplicate windows — and converge exactly.
func TestChaosFollowerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	leader, addr, repl := startLeaderPsid(t, t.TempDir(), "127.0.0.1:0")
	defer sigtermWait(t, leader)
	fdir := t.TempDir()
	follower, _ := startFollowerPsid(t, fdir, repl, "chaos-kill")

	done := make(chan map[string]geom.Point, 1)
	go func() { done <- oracleChurn(t, addr, 4, 50, 900*time.Millisecond) }()

	// Kill the follower while windows are in flight.
	time.Sleep(300 * time.Millisecond)
	if err := follower.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	follower.Wait()
	oracle := <-done

	follower2, faddr := startFollowerPsid(t, fdir, repl, "chaos-kill")
	defer sigtermWait(t, follower2)
	lc, err := service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fc, err := service.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	waitFollowerAt(t, fc, leaderSeq(t, lc), 15*time.Second)

	fs := replStats(t, fc).Follower
	if fs.Bootstraps != 0 {
		t.Errorf("killed follower re-bootstrapped %d times; its WAL should have resumed the stream", fs.Bootstraps)
	}
	if fs.Duplicates != 0 {
		t.Errorf("killed follower skipped %d duplicate windows; resume must be exact", fs.Duplicates)
	}
	assertState(t, fc, oracle, "restarted follower")
}

// TestChaosPartition drops the replication TCP stream mid-record via a
// byte-limited proxy. The follower must notice, redial, resume from its
// applied sequence, and converge without applying anything twice.
func TestChaosPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	leader, addr, repl := startLeaderPsid(t, t.TempDir(), "127.0.0.1:0")
	defer sigtermWait(t, leader)

	// The proxy forwards follower<->leader; the first session's
	// leader->follower direction is cut after 200 bytes — enough for the
	// handshake plus a few windows, then a tear mid-frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var firstConn atomic.Bool
	firstConn.Store(true)
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", repl)
			if err != nil {
				down.Close()
				continue
			}
			limit := int64(-1)
			if firstConn.CompareAndSwap(true, false) {
				limit = 200
			}
			go func() {
				go func() { io.Copy(up, down); up.Close() }() // acks upstream
				if limit < 0 {
					io.Copy(down, up)
				} else {
					io.CopyN(down, up, limit)
				}
				down.Close()
				up.Close()
			}()
		}
	}()

	fdir := t.TempDir()
	follower, faddr := startFollowerPsid(t, fdir, ln.Addr().String(), "chaos-part")
	defer sigtermWait(t, follower)

	oracle := oracleChurn(t, addr, 4, 50, 700*time.Millisecond)

	lc, err := service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fc, err := service.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	waitFollowerAt(t, fc, leaderSeq(t, lc), 15*time.Second)

	fs := replStats(t, fc).Follower
	if fs.Reconnects < 1 {
		t.Errorf("severed stream produced %d reconnects, want at least 1", fs.Reconnects)
	}
	if fs.Duplicates != 0 {
		t.Errorf("re-sync skipped %d duplicate windows; the resume handshake must be exact", fs.Duplicates)
	}
	if fs.Bootstraps != 0 {
		t.Errorf("re-sync bootstrapped %d times; the retained tail should have covered the gap", fs.Bootstraps)
	}
	assertState(t, fc, oracle, "partitioned follower")
}

// TestChaosLeaderKill SIGKILLs the leader. The follower must keep
// serving reads of its replicated state while disconnected, refuse
// writes, and — after the leader comes back WIPED on the same port —
// re-bootstrap from the new incarnation's snapshot and converge on the
// new state, discarding the old.
func TestChaosLeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	// Reserve a fixed replication port so the restarted leader binds
	// where the follower keeps redialing.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replAddr := rsv.Addr().String()
	rsv.Close()

	ldir := t.TempDir()
	leader, addr, _ := startLeaderPsid(t, ldir, replAddr)
	follower, faddr := startFollowerPsid(t, t.TempDir(), replAddr, "chaos-lead")
	defer sigtermWait(t, follower)

	oracle := oracleChurn(t, addr, 2, 40, 400*time.Millisecond)
	lc, err := service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := service.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	waitFollowerAt(t, fc, leaderSeq(t, lc), 15*time.Second)
	lc.Close()

	if err := leader.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	leader.Wait()

	// Leaderless: reads still serve the replicated state, writes are
	// still refused, the process stays healthy.
	assertState(t, fc, oracle, "leaderless follower")
	if resp, err := fc.Do(service.Request{Op: service.OpSet, ID: "x", P: []int64{1, 1}}); err != nil {
		t.Fatal(err)
	} else if resp.OK || resp.Code != service.CodeReadonly {
		t.Fatalf("leaderless follower accepted a write: %+v", resp)
	}

	// The leader returns WIPED (rm -rf its WAL) on the same port: the
	// follower is now ahead of an empty history and must re-bootstrap.
	if err := os.RemoveAll(ldir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(ldir, 0o755); err != nil {
		t.Fatal(err)
	}
	leader2, addr2, _ := startLeaderPsid(t, ldir, replAddr)
	defer sigtermWait(t, leader2)
	lc2, err := service.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer lc2.Close()
	oracle2 := oracleChurn(t, addr2, 2, 30, 300*time.Millisecond)

	deadline := time.Now().Add(20 * time.Second)
	for {
		fs := replStats(t, fc).Follower
		if fs.Bootstraps >= 1 && fs.AppliedSeq == leaderSeq(t, lc2) && fs.LagWindows == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never re-bootstrapped onto the wiped leader: %+v", fs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	assertState(t, fc, oracle2, "re-bootstrapped follower")
}

// TestChaosPromote is the failover convergence oracle across real
// processes and two write timelines: churn against leader L (term 0),
// quiesce, SIGKILL L, PROMOTE standby A in place (term 1), re-point
// follower B, churn against A — then bring L back over its own WAL as
// a stale term-0 leader, let a higher-term follower fence it, and fold
// it into the new timeline. Every write acknowledged by either
// timeline's leader must survive, byte for byte, on every node of the
// final topology. The one deliberate exception is pinned explicitly: a
// write acknowledged by the resurrected stale leader AFTER the new
// timeline exists is on a dead branch — fencing exists to slam that
// window shut, and the rejoin bootstrap discards it.
func TestChaosPromote(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	// Reserve the standby's promotion port: PROMOTE binds the -repl
	// address the standby was started with, and B must know it to
	// re-point.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	aRepl := rsv.Addr().String()
	rsv.Close()

	ldir := t.TempDir()
	leader, addr, replL := startLeaderPsid(t, ldir, "127.0.0.1:0")
	// A is a hot standby: a follower that also carries the listen
	// address its promotion will bind.
	a, aAddr, _ := startPsid(t, t.TempDir(), "-replica-of", replL, "-repl-id", "promo-a", "-repl", aRepl)
	defer sigtermWait(t, a)
	b, bAddr := startFollowerPsid(t, t.TempDir(), replL, "promo-b")
	defer sigtermWait(t, b)

	// Timeline 0: churn, then quiesce and confirm both followers hold
	// the full acked frontier. Promoting a caught-up follower is the
	// no-lost-acks precondition (docs/replication.md, "Failover").
	oracle0 := oracleChurnIDs(t, addr, "t0w", 3, 40, 500*time.Millisecond)
	lc, err := service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	head0 := leaderSeq(t, lc)
	lc.Close()
	ac, err := service.Dial(aAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	bc, err := service.Dial(bAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	waitFollowerAt(t, ac, head0, 15*time.Second)
	waitFollowerAt(t, bc, head0, 15*time.Second)

	// Kill -9 the leader and promote A in place — no restart: the same
	// process flips roles, seeds its repl listener from its recovered
	// WAL, and accepts writes.
	if err := leader.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	leader.Wait()
	if err := ac.Promote(""); err != nil {
		t.Fatalf("PROMOTE: %v", err)
	}
	if rs := replStats(t, ac); rs.Role != "leader" || rs.Term != 1 {
		t.Fatalf("promoted standby reports %s/term %d, want leader/term 1", rs.Role, rs.Term)
	}
	if err := bc.Follow(aRepl); err != nil {
		t.Fatalf("FOLLOW b -> a: %v", err)
	}

	// Timeline 1: churn against the promoted leader on a disjoint ID
	// namespace; the union of both oracles is the exact final truth.
	oracle1 := oracleChurnIDs(t, aAddr, "t1w", 3, 40, 500*time.Millisecond)
	// B must hold term 1 before it can fence anyone: wait until it has
	// caught up with A, which takes a bootstrap across the term boundary
	// and can outlast the churn on a loaded box.
	waitFollowerAt(t, bc, leaderSeq(t, ac), 15*time.Second)
	merged := make(map[string]geom.Point, len(oracle0)+len(oracle1))
	for id, p := range oracle0 {
		merged[id] = p
	}
	for id, p := range oracle1 {
		merged[id] = p
	}

	// The old leader comes back over its own WAL, on its old port,
	// still believing it leads at term 0 — and still accepting writes.
	// This is the split-brain hazard PROMOTE cannot prevent on its own.
	leader2, addr2, _ := startLeaderPsid(t, ldir, replL)
	defer sigtermWait(t, leader2)
	lc2, err := service.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer lc2.Close()
	if err := lc2.Set("split-brain", []int64{13, 13}); err != nil {
		t.Fatalf("stale leader refused a write before fencing: %v", err)
	}

	// Fencing: the first higher-term follower that dials the stale
	// leader deposes it. B (term 1) does; L must flip read-only with
	// the fenced error code, without a restart.
	if err := bc.Follow(replL); err != nil {
		t.Fatalf("FOLLOW b -> stale leader: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := lc2.Do(service.Request{Op: service.OpSet, ID: "post-fence", P: []int64{1, 1}})
		if err != nil {
			t.Fatalf("SET on the stale leader: %v", err)
		}
		if !resp.OK && resp.Code == service.CodeFenced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale leader never fenced itself: last response %+v", resp)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rs := replStats(t, lc2); rs.Role != "fenced" {
		t.Fatalf("deposed leader reports role %q, want fenced", rs.Role)
	}

	// Fold everything onto timeline 1: B back to A, and the fenced
	// ex-leader rejoins as a follower (its stale term and the dead
	// split-brain branch force a clean bootstrap).
	if err := bc.Follow(aRepl); err != nil {
		t.Fatalf("FOLLOW b -> a (repair): %v", err)
	}
	if err := lc2.Follow(aRepl); err != nil {
		t.Fatalf("FOLLOW ex-leader -> a: %v", err)
	}
	head1 := leaderSeq(t, ac)
	waitFollowerAt(t, bc, head1, 15*time.Second)
	waitFollowerAt(t, lc2, head1, 15*time.Second)

	// The oracle: every write acknowledged by either timeline's leader
	// is present on every node of the final topology, and nothing else
	// — in particular the stale write acked after the promotion is
	// gone, discarded with its dead timeline.
	assertState(t, ac, merged, "promoted leader")
	assertState(t, bc, merged, "re-pointed follower")
	assertState(t, lc2, merged, "rejoined ex-leader")
	if _, found, _ := lc2.Get("split-brain"); found {
		t.Error("the stale timeline's post-promotion write leaked into the rejoined ex-leader")
	}
	for who, c := range map[string]*service.Client{"b": bc, "ex-leader": lc2} {
		rs := replStats(t, c)
		if rs.Role != "follower" || rs.Term != 1 {
			t.Errorf("%s reports %s/term %d on the final topology, want follower/term 1", who, rs.Role, rs.Term)
		}
	}
}

// chaser is a client that follows an address the test moves: each op
// goes to the current target, redialing when the target changed or the
// last op tore the connection.
type chaser struct {
	target *atomic.Value // string: where the next op goes
	c      *service.Client
	addr   string
}

func (ch *chaser) do(req service.Request) (service.Response, error) {
	target := ch.target.Load().(string)
	if ch.c != nil && ch.addr != target {
		ch.close()
	}
	if ch.c == nil {
		c, err := service.Dial(target)
		if err != nil {
			return service.Response{}, err
		}
		ch.c, ch.addr = c, target
	}
	resp, err := ch.c.Do(req)
	if err != nil {
		ch.close()
	}
	return resp, err
}

func (ch *chaser) close() {
	if ch.c != nil {
		ch.c.Close()
		ch.c = nil
	}
}

// TestChaosHandovers runs traffic THROUGH repeated violent handovers
// with the victim rejoining: a leader and two hot standbys, one writer
// and one reader that never stop, and per round kill -9 the leader,
// PROMOTE the next standby in place, FOLLOW-re-point the other survivor,
// restart the victim over its own WAL as a standby of the new timeline.
// Each round is sequenced the way an operator would run it: the reader
// moves off the victim while it is alive (a live switch, so a failed
// read afterwards is PROMOTE's doing); the writer pauses between ops and
// the promote target is confirmed at that static frontier with lag 0
// (promoting a lagging follower is the one way to lose acked writes;
// docs/replication.md, "What PROMOTE does not do"); SIGKILL, and the
// writer resumes against a node that is still a follower, so the
// unavailability window opens honestly at the first refused write; the
// first write the promoted node acknowledges closes it. go test -v logs
// the windows: docs/replication.md's "Measured, not promised" numbers.
func TestChaosHandovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	const handovers = 2
	type node struct {
		cmd                 *exec.Cmd // nil while killed
		addr, repl, dir, id string
	}
	nodes := make([]*node, 3)
	for i := range nodes {
		// The -repl address outlives the process: survivors re-point at
		// it and the restarted victim carries it to its next promotion.
		rsv, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &node{repl: rsv.Addr().String(), dir: t.TempDir(), id: fmt.Sprintf("hand-%d", i)}
		rsv.Close()
	}
	standby := func(n *node, leader *node) {
		n.cmd, n.addr, _ = startPsid(t, n.dir, "-replica-of", leader.repl, "-repl-id", n.id, "-repl", n.repl)
	}
	defer func() {
		for _, n := range nodes {
			if n.cmd != nil {
				sigtermWait(t, n.cmd)
			}
		}
	}()
	nodes[0].cmd, nodes[0].addr, _ = startLeaderPsid(t, nodes[0].dir, nodes[0].repl)
	standby(nodes[1], nodes[0])
	standby(nodes[2], nodes[0])
	dial := func(n *node) *service.Client {
		t.Helper()
		c, err := service.Dial(n.addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	// The churn. gate pauses the writer (only) between ops; opened and
	// closed carry the edges of its unavailability windows.
	var writeAddr, readAddr atomic.Value
	writeAddr.Store(nodes[0].addr)
	readAddr.Store(nodes[1].addr)
	var gate sync.Mutex
	var stop atomic.Bool
	var reads, readErrs atomic.Int64
	opened := make(chan struct{}, 64)
	closed := make(chan time.Duration, 64)
	acked := make(map[string]geom.Point) // the writer's until wg.Wait
	var wg sync.WaitGroup
	defer func() { stop.Store(true); wg.Wait() }() // before any SIGTERM: a failing round must not strand them
	wg.Add(2)
	go func() {
		defer wg.Done()
		w := chaser{target: &writeAddr}
		defer w.close()
		var winStart time.Time
		for i := 0; !stop.Load(); i++ {
			gate.Lock()
			id := fmt.Sprintf("h-%d", i%200)
			p := geom.Pt2(int64(i), int64(i%997))
			req := service.Request{Op: service.OpSet, ID: id, P: []int64{p[0], p[1]}}
			if i%7 == 3 {
				req = service.Request{Op: service.OpDel, ID: id}
			}
			// A refusal (readonly: the target is not the leader yet) and a
			// torn connection both leave the window open; neither is an ack.
			if resp, err := w.do(req); err != nil || !resp.OK {
				if winStart.IsZero() {
					winStart = time.Now()
					opened <- struct{}{}
				}
				time.Sleep(200 * time.Microsecond)
			} else {
				if req.Op == service.OpDel {
					delete(acked, id)
				} else {
					acked[id] = p
				}
				if !winStart.IsZero() {
					closed <- time.Since(winStart)
					winStart = time.Time{}
				}
			}
			gate.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		r := chaser{target: &readAddr}
		defer r.close()
		for i := 0; !stop.Load(); i++ {
			resp, err := r.do(service.Request{Op: service.OpNearby, P: []int64{int64(i % 40_000), 500}, K: 5})
			reads.Add(1)
			if err != nil || !resp.OK {
				if readErrs.Add(1) == 1 {
					t.Errorf("reader: NEARBY on %s failed: %v %+v", r.addr, err, resp)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	lead := 0
	for round := 1; round <= handovers; round++ {
		victim, next, other := nodes[lead], nodes[(lead+1)%3], nodes[(lead+2)%3]
		time.Sleep(300 * time.Millisecond)
		readsBefore := reads.Load()
		readAddr.Store(next.addr)
		nc := dial(next)
		func() {
			gate.Lock()
			defer gate.Unlock()
			head := leaderSeq(t, dial(victim))
			waitFollowerAt(t, nc, head, 15*time.Second)
			if err := victim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			victim.cmd.Wait()
			victim.cmd = nil
			writeAddr.Store(next.addr)
		}()
		select {
		case <-opened:
		case <-time.After(15 * time.Second):
			t.Fatalf("round %d: the still-follower refused no write; the window never opened", round)
		}

		if err := nc.Promote(""); err != nil {
			t.Fatalf("round %d: PROMOTE: %v", round, err)
		}
		if rs := replStats(t, nc); rs.Role != "leader" || rs.Term != uint64(round) {
			t.Fatalf("round %d: promoted node reports %s/term %d, want leader/term %d", round, rs.Role, rs.Term, round)
		}
		if err := dial(other).Follow(next.repl); err != nil {
			t.Fatalf("round %d: FOLLOW survivor -> new leader: %v", round, err)
		}
		// The victim's WAL still carries the old term, so it cannot resume
		// the new timeline's stream: it must bootstrap onto it.
		standby(victim, next)
		vc := dial(victim)
		for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			rs := replStats(t, vc)
			if rs.Role == "follower" && rs.Follower.Connected && rs.Term == uint64(round) && rs.Follower.Bootstraps >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: restarted victim reports %s/term %d, %+v; want a connected follower at term %d that bootstrapped",
					round, rs.Role, rs.Term, rs.Follower, round)
			}
		}
		select {
		case d := <-closed:
			t.Logf("round %d: writes unavailable for %v (kill -9 %s, promote %s)", round, d, victim.id, next.id)
		case <-time.After(15 * time.Second):
			t.Fatalf("round %d: the new leader never acknowledged a write", round)
		}
		if n := readErrs.Load(); n != 0 || reads.Load() == readsBefore {
			t.Fatalf("round %d: %d failed reads, %d served; reads on a survivor must ride through the handover",
				round, n, reads.Load()-readsBefore)
		}
		lead = (lead + 1) % 3
	}

	// One more churn slice on the final topology, then quiesce and audit:
	// every node holds exactly the acknowledged writes of all three
	// timelines, and there was one term and one write window per handover.
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if len(opened) != 0 || len(closed) != 0 {
		t.Errorf("%d write windows opened outside a handover (%d closed), want exactly one per kill", len(opened), len(closed))
	}
	t.Logf("%d reads through %d handovers, %d failed; %d objects acknowledged", reads.Load(), handovers, readErrs.Load(), len(acked))
	lc := dial(nodes[lead])
	if rs := replStats(t, lc); rs.Role != "leader" || rs.Term != handovers {
		t.Errorf("final leader reports %s/term %d, want leader/term %d", rs.Role, rs.Term, handovers)
	}
	for i, n := range nodes {
		c := lc
		if i != lead {
			c = dial(n)
			waitFollowerAt(t, c, leaderSeq(t, lc), 15*time.Second)
		}
		assertState(t, c, acked, n.id)
	}
}
