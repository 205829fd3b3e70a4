package service

// In-process replication tests: a real leader Server and follower
// Servers wired through the TCP repl protocol, asserting role
// enforcement, convergence, snapshot bootstrap, and restart resume.
// The cross-process versions (kill -9, partitions) live in cmd/psid.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/wal"
)

// startLeader runs a durable Server with a replication listener on an
// ephemeral port. fsync=always makes every SET its own committed
// window, so tests control the sequence count exactly.
func startLeader(t *testing.T, dir string, opts Options) *Server {
	t.Helper()
	opts.ReplListen = "127.0.0.1:0"
	if opts.WALFsync == 0 {
		opts.WALFsync = wal.FsyncAlways
	}
	return startDurable(t, dir, opts)
}

// startFollowerOf runs a durable Server replicating from leader.
func startFollowerOf(t *testing.T, dir string, leader *Server, id string) *Server {
	t.Helper()
	return startDurable(t, dir, Options{
		ReplicaOf: leader.ReplAddr().String(),
		ReplID:    id,
	})
}

// waitConverged polls until the follower's applied sequence reaches the
// leader's replication head (and its lag drains to zero). The follower
// reports a window applied only once its commit has returned, so callers
// may inspect state right away.
func waitConverged(t *testing.T, leader, follower *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		want := leader.Stats().Repl.Leader.LastSeq
		st := follower.Stats().Repl.Follower
		if st.AppliedSeq == want && st.LagWindows == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: leader at %d, follower %+v", want, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// healthz fetches the server's /healthz status and decoded JSON body.
func healthz(t *testing.T, s *Server) (int, map[string]any) {
	t.Helper()
	code, _, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/healthz")
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	return code, m
}

// TestReplHealthzBeforeStart: a -replica-of server has the follower role
// from construction but its session only from Start, and the probe
// listener serves before Start builds it. A probe in that window must
// see a follower that is not connected yet (503 under the lag gate), not
// a nil session.
func TestReplHealthzBeforeStart(t *testing.T) {
	s, err := NewDurable(newTestIndex(), Options{
		WALDir: t.TempDir(), FlushInterval: -1,
		ReplicaOf: "127.0.0.1:1", ReplID: "booting", MaxLagWindows: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownT(t, s)
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("/healthz body %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusServiceUnavailable || m["role"] != "follower" ||
		m["repl_connected"] != false || m["state"] != "lagging" {
		t.Fatalf("booting follower /healthz = %d %v, want 503 role=follower repl_connected=false state=lagging", rec.Code, m)
	}
}

func TestReplValidation(t *testing.T) {
	if _, err := NewDurable(newTestIndex(), Options{ReplListen: "127.0.0.1:0"}); err == nil {
		t.Fatal("leader without a WAL was accepted")
	}
	if _, err := NewDurable(newTestIndex(), Options{ReplicaOf: "127.0.0.1:1"}); err == nil {
		t.Fatal("follower without a WAL was accepted")
	}
	// ReplListen plus ReplicaOf is a hot standby, not a contradiction:
	// the server starts follower-side and ReplListen is the address
	// PROMOTE binds.
	s, err := NewDurable(newTestIndex(), Options{
		WALDir: t.TempDir(), ReplListen: "127.0.0.1:0", ReplicaOf: "127.0.0.1:1",
	})
	if err != nil {
		t.Fatalf("standby (ReplListen plus ReplicaOf) rejected: %v", err)
	}
	if got := replRole(s.role.Load()); got != roleFollower {
		t.Fatalf("standby starts as %v, want follower", got)
	}
	shutdownT(t, s)
}

func TestReplReadonlyFollower(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	lc := dialT(t, leader)
	if err := lc.Set("a", []int64{5, 5}); err != nil {
		t.Fatal(err)
	}

	follower := startFollowerOf(t, t.TempDir(), leader, "ro")
	waitConverged(t, leader, follower)
	fc := dialT(t, follower)

	for _, req := range []Request{
		{Op: OpSet, ID: "x", P: []int64{1, 1}},
		{Op: OpDel, ID: "a"},
		{Op: OpFlush},
	} {
		resp, err := fc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Code != CodeReadonly {
			t.Fatalf("%s on a follower: got ok=%t code=%q, want the %s error",
				req.Op, resp.OK, resp.Code, CodeReadonly)
		}
	}
	// Reads still serve the replicated state.
	p, found, err := fc.Get("a")
	if err != nil || !found || p[0] != 5 || p[1] != 5 {
		t.Fatalf("GET a on follower = %v found=%t err=%v, want [5 5]", p, found, err)
	}
	if hits, err := fc.Nearby([]int64{0, 0}, 1); err != nil || len(hits) != 1 || hits[0].ID != "a" {
		t.Fatalf("NEARBY on follower = %v, %v", hits, err)
	}
	// And the refused SET never leaked into follower state.
	if _, found, _ := fc.Get("x"); found {
		t.Fatal("refused SET is visible on the follower")
	}
}

func TestReplConvergence(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	f1 := startFollowerOf(t, t.TempDir(), leader, "f1")
	f2 := startFollowerOf(t, t.TempDir(), leader, "f2")
	lc := dialT(t, leader)

	const n = 40
	for i := 0; i < n; i++ {
		if err := lc.Set(fmt.Sprintf("o%02d", i), []int64{int64(i), int64(i * 2)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 4 {
		if err := lc.Del(fmt.Sprintf("o%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, leader, f1)
	waitConverged(t, leader, f2)

	for _, f := range []*Server{f1, f2} {
		fc := dialT(t, f)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("o%02d", i)
			p, found, err := fc.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				if found {
					t.Fatalf("%s: deleted %s still present on follower", f.opts.ReplID, id)
				}
				continue
			}
			if !found || p[0] != int64(i) || p[1] != int64(i*2) {
				t.Fatalf("%s: GET %s = %v found=%t, want [%d %d]", f.opts.ReplID, id, p, found, i, i*2)
			}
		}
		if st := f.Stats(); st.Objects != n-n/4 {
			t.Fatalf("%s: %d objects, want %d", f.opts.ReplID, st.Objects, n-n/4)
		}
	}

	// The leader tracks both followers by identity, fully acked. A
	// follower stores its applied position before it writes the ACK, so
	// the leader's view may trail waitConverged by that frame: poll it.
	deadline := time.Now().Add(10 * time.Second)
	for acked := false; !acked; time.Sleep(2 * time.Millisecond) {
		ls := leader.Stats().Repl.Leader
		if len(ls.Followers) != 2 || ls.Connected != 2 {
			t.Fatalf("leader follower view: %+v", ls)
		}
		acked = true
		for _, fi := range ls.Followers {
			if fi.LagWindows != 0 || fi.AckedSeq != ls.LastSeq {
				acked = false
				if time.Now().After(deadline) {
					t.Fatalf("follower %s not fully acked: %+v (leader at %d)", fi.ID, fi, ls.LastSeq)
				}
			}
		}
	}
}

// TestReplSnapshotBootstrap forces the snapshot path: a leader restarted
// over its WAL directory starts its catch-up ring empty at the recovered
// sequence, so a follower arriving afterwards finds none of the history
// in the ring and must bootstrap — and then ride the live tail.
func TestReplSnapshotBootstrap(t *testing.T) {
	dir := t.TempDir()
	first := startLeader(t, dir, Options{})
	fc := dialT(t, first)
	for i := 0; i < 30; i++ {
		if err := fc.Set(fmt.Sprintf("pre%02d", i), []int64{int64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	fc.Close()
	shutdownT(t, first)
	leader := startLeader(t, dir, Options{})
	lc := dialT(t, leader)

	follower := startFollowerOf(t, t.TempDir(), leader, "late")
	waitConverged(t, leader, follower)
	if st := follower.Stats().Repl.Follower; st.Bootstraps != 1 {
		t.Fatalf("follower bootstraps = %d, want exactly 1", st.Bootstraps)
	}
	if st := follower.Stats(); st.Objects != 30 {
		t.Fatalf("bootstrapped %d objects, want 30", st.Objects)
	}

	// Post-bootstrap traffic arrives as tail windows, not more snapshots.
	if err := lc.Set("live", []int64{7, 7}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, leader, follower)
	st := follower.Stats().Repl.Follower
	if st.Bootstraps != 1 || st.Duplicates != 0 {
		t.Fatalf("after live tail: %+v, want 1 bootstrap and 0 duplicates", st)
	}
	if p, found, _ := dialT(t, follower).Get("live"); !found || p[0] != 7 {
		t.Fatalf("live write missing on follower: %v %t", p, found)
	}
}

// TestReplFollowerRestartResume pins the resume contract: a follower
// restarted over its own WAL directory rejoins at its recovered
// sequence and catches up incrementally — no re-bootstrap, no window
// applied twice.
func TestReplFollowerRestartResume(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	lc := dialT(t, leader)
	fdir := t.TempDir()

	follower := startFollowerOf(t, fdir, leader, "resume")
	for i := 0; i < 10; i++ {
		if err := lc.Set(fmt.Sprintf("a%02d", i), []int64{int64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, leader, follower)
	shutdownT(t, follower)

	// The leader keeps committing while the follower is down.
	for i := 0; i < 10; i++ {
		if err := lc.Set(fmt.Sprintf("b%02d", i), []int64{int64(i), 2}); err != nil {
			t.Fatal(err)
		}
	}

	follower = startFollowerOf(t, fdir, leader, "resume")
	waitConverged(t, leader, follower)
	// The windows counter increments just after the apply that advances
	// AppliedSeq, so give the final bump a moment before asserting.
	deadline := time.Now().Add(5 * time.Second)
	for follower.Stats().Repl.Follower.Windows != 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := follower.Stats().Repl.Follower
	if st.Bootstraps != 0 || st.Duplicates != 0 {
		t.Fatalf("restart resumed with %d bootstraps / %d duplicates, want 0/0", st.Bootstraps, st.Duplicates)
	}
	// Exactly the missed tail was applied this session.
	if st.Windows != 10 {
		t.Fatalf("restart applied %d windows, want the 10 missed", st.Windows)
	}
	if s := follower.Stats(); s.Objects != 20 {
		t.Fatalf("follower has %d objects after resume, want 20", s.Objects)
	}
}

// TestReplHealthz pins the replication bodies of /healthz and the
// MaxLagWindows readiness gate: the leader reports its term and head, a
// caught-up follower is green with zero lag — gate armed or not — and
// once its leader is gone the gated follower answers 503 "lagging".
func TestReplHealthz(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	lc := dialT(t, leader)
	for i := range 3 {
		if err := lc.Set(fmt.Sprintf("h%d", i), []int64{int64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	follower := startDurable(t, t.TempDir(), Options{
		ReplicaOf: leader.ReplAddr().String(), ReplID: "gated", MaxLagWindows: 1,
	})
	waitConverged(t, leader, follower)

	if code, m := healthz(t, leader); code != http.StatusOK || m["role"] != "leader" ||
		m["term"] != float64(0) || m["repl_seq"] != float64(3) {
		t.Fatalf("leader /healthz = %d %v, want 200 role=leader term=0 repl_seq=3", code, m)
	}
	if code, m := healthz(t, follower); code != http.StatusOK || m["ok"] != true || m["role"] != "follower" ||
		m["lag_windows"] != float64(0) || m["applied_seq"] != float64(3) || m["repl_connected"] != true {
		t.Fatalf("caught-up follower /healthz = %d %v, want 200 role=follower lag_windows=0 applied_seq=3", code, m)
	}

	shutdownT(t, leader)
	waitCond(t, func() bool { return !follower.Stats().Repl.Follower.Connected })
	if code, m := healthz(t, follower); code != http.StatusServiceUnavailable || m["ok"] != false ||
		m["state"] != "lagging" || m["role"] != "follower" {
		t.Fatalf("gated follower without its leader /healthz = %d %v, want 503 state=lagging", code, m)
	}
	// It still serves the reads it has.
	if _, found, err := dialT(t, follower).Get("h0"); err != nil || !found {
		t.Fatalf("GET on the lagging follower: found=%t err=%v", found, err)
	}
}
