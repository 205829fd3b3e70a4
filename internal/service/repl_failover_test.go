package service

// Failover state-machine tests: PROMOTE/DEMOTE/FOLLOW transitions on
// in-process Servers, including every invalid transition, double
// promotion, promotion of a disconnected follower, and a full
// leader-loss handover with term fencing. The cross-process chaos
// version (kill -9 mid-churn) is TestChaosPromote in cmd/psid.

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// startStandby runs a follower of leader that also carries a standby
// listen address for PROMOTE to bind.
func startStandby(t *testing.T, dir string, leader *Server, id string) *Server {
	t.Helper()
	return startDurable(t, dir, Options{
		ReplicaOf:  leader.ReplAddr().String(),
		ReplListen: "127.0.0.1:0",
		ReplID:     id,
		Obs:        obs.New(),
	})
}

// scrape fetches and parses the server's /metrics.
func scrape(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	code, _, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/metrics")
	samples, err := obs.ParseText(strings.NewReader(body))
	if code != http.StatusOK || err != nil {
		t.Fatalf("/metrics = %d, parse error %v\n%s", code, err, body)
	}
	return samples
}

// roleOf snapshots the server's current role.
func roleOf(s *Server) replRole { return replRole(s.role.Load()) }

func TestFailoverInvalidTransitions(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	follower := startFollowerOf(t, t.TempDir(), leader, "f")
	waitConverged(t, leader, follower)
	plain := startDurable(t, t.TempDir(), Options{})

	cases := []struct {
		name string
		call func() error
		want string // error substring; the role must not change
	}{
		{"promote a leader", func() error { return leader.Promote("") }, "already the leader"},
		{"follow on a leader", func() error { return leader.Follow("127.0.0.1:1") }, "DEMOTE it first"},
		{"demote a follower", func() error { return follower.Demote("") }, "not the leader"},
		{"promote without a listen address", func() error { return follower.Promote("") }, "no listen address"},
		{"promote a non-replica", func() error { return plain.Promote("127.0.0.1:0") }, "not a replica"},
		{"demote a non-replica", func() error { return plain.Demote("") }, "not the leader"},
		{"follow on a non-replica", func() error { return plain.Follow("127.0.0.1:1") }, "not a replica"},
		{"promote on an unbindable address", func() error { return follower.Promote("256.0.0.1:bad") }, "listen"},
	}
	for _, tc := range cases {
		beforeL, beforeF, beforeP := roleOf(leader), roleOf(follower), roleOf(plain)
		err := tc.call()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if roleOf(leader) != beforeL || roleOf(follower) != beforeF || roleOf(plain) != beforeP {
			t.Fatalf("%s: a refused transition changed a role", tc.name)
		}
	}
	if n := leader.roleChanges.Load() + follower.roleChanges.Load() + plain.roleChanges.Load(); n != 0 {
		t.Fatalf("refused transitions bumped role_changes to %d", n)
	}
}

func TestFailoverDoublePromote(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	follower := startStandby(t, t.TempDir(), leader, "spare")
	waitConverged(t, leader, follower)

	if err := follower.Promote(""); err != nil {
		t.Fatalf("first promote: %v", err)
	}
	if got := roleOf(follower); got != roleLeader {
		t.Fatalf("after promote: role %v, want leader", got)
	}
	if term := follower.wal.Term(); term != 1 {
		t.Fatalf("after promote: term %d, want 1", term)
	}
	if err := follower.Promote(""); err == nil || !strings.Contains(err.Error(), "already the leader") {
		t.Fatalf("double promote: err = %v, want refusal", err)
	}
	if term := follower.wal.Term(); term != 1 {
		t.Fatalf("double promote bumped the term to %d", term)
	}
	if n := follower.roleChanges.Load(); n != 1 {
		t.Fatalf("role_changes = %d after one promotion, want 1", n)
	}
}

// TestFailoverPromoteDisconnected promotes a follower whose leader is
// long gone — the normal disaster shape: the promotion must not depend
// on any live session, only on the locally journaled state.
func TestFailoverPromoteDisconnected(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	lc := dialT(t, leader)
	for _, id := range []string{"a", "b", "c"} {
		if err := lc.Set(id, []int64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	follower := startFollowerOf(t, t.TempDir(), leader, "orphan")
	waitConverged(t, leader, follower)
	shutdownT(t, leader)

	if err := follower.Promote("127.0.0.1:0"); err != nil {
		t.Fatalf("promoting a disconnected follower: %v", err)
	}
	fc := dialT(t, follower)
	if err := fc.Set("post", []int64{9, 9}); err != nil {
		t.Fatalf("write to promoted leader: %v", err)
	}
	for _, id := range []string{"a", "b", "c", "post"} {
		if _, found, err := fc.Get(id); err != nil || !found {
			t.Fatalf("GET %s on promoted leader: found=%t err=%v", id, found, err)
		}
	}
	st := follower.Stats().Repl
	if st.Role != "leader" || st.Term != 1 || st.RoleChanges != 1 {
		t.Fatalf("promoted stats = %+v, want leader/term 1/1 change", st)
	}
}

// TestFailoverHandover is the full in-process failover: the leader is
// lost, a follower is promoted, the survivor is re-pointed, the stale
// leader is fenced on contact with the new timeline, and finally
// rejoins it as a follower.
func TestFailoverHandover(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{Obs: obs.New()})
	lc := dialT(t, leader)
	for _, id := range []string{"a", "b"} {
		if err := lc.Set(id, []int64{3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	f1 := startStandby(t, t.TempDir(), leader, "f1")
	f2 := startFollowerOf(t, t.TempDir(), leader, "f2")
	waitConverged(t, leader, f1)
	waitConverged(t, leader, f2)
	appliedAsFollower := scrape(t, f1)["psi_repl_windows_applied_total"] + scrape(t, f1)["psi_repl_bootstraps_total"]
	if appliedAsFollower == 0 {
		t.Fatal("the standby's /metrics counted neither a window nor a bootstrap while it followed")
	}

	// Handover: promote f1, re-point f2 at it.
	if err := f1.Promote(""); err != nil {
		t.Fatal(err)
	}
	f1c := dialT(t, f1)
	if err := f1c.Set("n1", []int64{7, 7}); err != nil {
		t.Fatalf("write to promoted leader: %v", err)
	}
	if err := f2.Follow(f1.ReplAddr().String()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, f1, f2)
	if st := f2.Stats().Repl; st.Term != 1 || st.Role != "follower" {
		t.Fatalf("re-pointed follower stats = %+v, want term 1 follower", st)
	}
	// The probe an orchestrator gates on tells the same story.
	if code, m := healthz(t, f1); code != http.StatusOK || m["role"] != "leader" || m["term"] != float64(1) {
		t.Fatalf("promoted leader /healthz = %d %v, want 200 role=leader term=1", code, m)
	}
	if code, m := healthz(t, f2); code != http.StatusOK || m["role"] != "follower" || m["term"] != float64(1) {
		t.Fatalf("re-pointed follower /healthz = %d %v, want 200 role=follower term=1", code, m)
	}
	// The promoted node's /metrics is a leader's, with live values: the
	// series are the Server's, not those of the incarnation it booted with.
	// Its follower life's gauges are gone with the session, its counters
	// stay (cumulative across incarnations).
	m := scrape(t, f1)
	if _, present := m[`psi_repl_follower_lag_windows{follower="f2"}`]; !present {
		t.Fatalf("promoted leader /metrics has no psi_repl_follower_lag_windows series for f2\n%v", m)
	}
	for series, ok := range map[string]bool{
		"psi_repl_role":                                     m["psi_repl_role"] == float64(roleLeader),
		"psi_repl_followers_connected":                      m["psi_repl_followers_connected"] >= 1,
		"psi_repl_windows_sent_total":                       m["psi_repl_windows_sent_total"]+m["psi_repl_snapshots_sent_total"] >= 1,
		`psi_repl_follower_connected{follower="f2"}`:        m[`psi_repl_follower_connected{follower="f2"}`] == 1,
		"psi_repl_connected (no frozen follower gauge)":     m["psi_repl_connected"] == 0,
		"psi_repl_lag_windows (no frozen follower gauge)":   m["psi_repl_lag_windows"] == 0,
		"psi_repl_applied_seq (no frozen follower gauge)":   m["psi_repl_applied_seq"] == 0,
		"psi_repl_windows_applied_total (kept across role)": m["psi_repl_windows_applied_total"]+m["psi_repl_bootstraps_total"] == appliedAsFollower,
	} {
		if !ok {
			t.Fatalf("promoted leader /metrics: %s is wrong\n%v", series, m)
		}
	}
	// The cross-term re-point bootstraps (timelines must not mix), and
	// the readonly refusal now points at the new leader.
	if st := f2.Stats().Repl.Follower; st.Bootstraps != 1 {
		t.Fatalf("f2 bootstraps = %d, want 1 (term boundary forces it)", st.Bootstraps)
	}
	if resp, err := dialT(t, f2).Do(Request{Op: OpSet, ID: "x", P: []int64{1, 1}}); err != nil {
		t.Fatal(err)
	} else if resp.Code != CodeReadonly || resp.Leader != f1.ReplAddr().String() {
		t.Fatalf("readonly refusal = %+v, want leader hint %s", resp, f1.ReplAddr())
	}

	// The stale leader survived. The moment a higher-term follower dials
	// it, it must fence itself and refuse writes with CodeFenced. A probe
	// polls it from here to the end: across leader → fenced → follower
	// every /healthz must be a 200 whose role has its session behind it.
	probeStop, probeDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(probeDone)
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			resp, err := http.Get("http://" + leader.HTTPAddr().String() + "/healthz")
			if err != nil {
				t.Errorf("/healthz across the fence and the FOLLOW: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/healthz across the fence and the FOLLOW = %d, want 200", resp.StatusCode)
				return
			}
		}
	}()
	defer func() { close(probeStop); <-probeDone }()
	if err := f2.Follow(leader.ReplAddr().String()); err != nil {
		t.Fatal(err)
	}
	waitFenced(t, leader)
	resp, err := lc.Do(Request{Op: OpSet, ID: "split", P: []int64{6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeFenced {
		t.Fatalf("write on a deposed leader = %+v, want %s", resp, CodeFenced)
	}
	if st := leader.Stats().Repl; st.Role != "fenced" {
		t.Fatalf("deposed leader role = %s, want fenced", st.Role)
	}
	// Repair the detour and fold the old leader into the new timeline.
	if err := f2.Follow(f1.ReplAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := leader.Follow(f1.ReplAddr().String()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, f1, leader)
	waitConverged(t, f1, f2)
	olc := dialT(t, leader)
	if _, found, err := olc.Get("n1"); err != nil || !found {
		t.Fatalf("post-promotion write missing on the rejoined ex-leader: found=%t err=%v", found, err)
	}
	if _, found, _ := olc.Get("split"); found {
		t.Fatal("fenced write leaked into the rejoined ex-leader")
	}
	if resp, err := olc.Do(Request{Op: OpSet, ID: "y", P: []int64{1, 1}}); err != nil {
		t.Fatal(err)
	} else if resp.Code != CodeReadonly || resp.Leader != f1.ReplAddr().String() {
		t.Fatalf("rejoined ex-leader refusal = %+v, want readonly with leader hint", resp)
	}
	if st := leader.Stats().Repl; st.Term != 1 || st.RoleChanges != 2 {
		t.Fatalf("rejoined ex-leader stats = %+v, want term 1 after 2 changes (deposed, rejoined)", st)
	}
	// The rejoined ex-leader's /metrics is a follower's, at the leader's
	// head; what it shipped while it led is still counted.
	m = scrape(t, leader)
	if m["psi_repl_role"] != float64(roleFollower) || m["psi_repl_connected"] != 1 ||
		m["psi_repl_applied_seq"] != float64(f1.wal.LastSeq()) || m["psi_repl_lag_windows"] != 0 ||
		m["psi_repl_bootstraps_total"] != 1 || m["psi_repl_followers_connected"] != 0 ||
		m["psi_repl_connects_total"] < 2 {
		t.Fatalf("rejoined ex-leader /metrics, want a connected follower at seq %d that once led:\n%v", f1.wal.LastSeq(), m)
	}
}

// TestFailoverDemote pins the operator-initiated path: DEMOTE fences
// without any wire contact, records the hint, and FOLLOW rejoins.
func TestFailoverDemote(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	lc := dialT(t, leader)
	if err := lc.Set("a", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Demote("10.0.0.9:7601"); err != nil {
		t.Fatal(err)
	}
	resp, err := lc.Do(Request{Op: OpSet, ID: "b", P: []int64{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeFenced || resp.Leader != "10.0.0.9:7601" {
		t.Fatalf("write on a demoted leader = %+v, want fenced with the hinted leader", resp)
	}
	// Reads still serve the frozen state.
	if _, found, err := lc.Get("a"); err != nil || !found {
		t.Fatalf("read on a demoted leader: found=%t err=%v", found, err)
	}
	if err := leader.Demote(""); err == nil {
		t.Fatal("double demote was accepted")
	}
	if err := leader.Promote(""); err == nil || !strings.Contains(err.Error(), "deposed") {
		t.Fatalf("promote on a fenced server: err = %v, want refusal", err)
	}
}

// waitFenced polls until s has fenced itself (the deposed callback runs
// on a replication connection goroutine, so it is asynchronous to the
// FOLLOW that triggers it).
func waitFenced(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !s.roleIs(roleFenced) {
		if time.Now().After(deadline) {
			t.Fatalf("server never fenced itself (role %v)", roleOf(s))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdminAddrResetPerLine: an addr never carries over from one line of
// a connection to the next. The request struct is reused per connection
// and addr was the one field not reset, so a bare FOLLOW re-dialled the
// previous line's address instead of failing, a bare PROMOTE bound it as
// the listen address and a bare DEMOTE recorded it as the leader hint.
func TestAdminAddrResetPerLine(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	follower := startFollowerOf(t, t.TempDir(), leader, "f") // no standby listen address
	for _, tc := range []struct {
		on      *Server
		carrier string // a refused line that carries an addr
		bare    string
		want    string // in the bare line's reply
		then    string // a follow-up line, if the reply alone cannot tell
		wantNot string // must be absent from the follow-up's reply
	}{
		{on: follower, carrier: `{"op":"DEMOTE","addr":"127.0.0.1:0"}`, bare: `{"op":"FOLLOW"}`, want: "FOLLOW: missing addr"},
		{on: follower, carrier: `{"op":"DEMOTE","addr":"127.0.0.1:0"}`, bare: `{"op":"PROMOTE"}`, want: "no listen address"},
		{on: leader, carrier: `{"op":"FOLLOW","addr":"stale:1"}`, bare: `{"op":"DEMOTE"}`, want: `{"ok":true}`,
			then: `{"op":"SET","id":"a","p":[1,1]}`, wantNot: "stale:1"},
	} {
		lc := tc.on.NewLineConn()
		if reply := string(lc.Serve([]byte(tc.carrier))); !strings.Contains(reply, `"ok":false`) {
			t.Fatalf("%s was not refused: %s", tc.carrier, reply)
		}
		if reply := string(lc.Serve([]byte(tc.bare))); !strings.Contains(reply, tc.want) {
			t.Errorf("%s after %s answered %s, want %q", tc.bare, tc.carrier, reply, tc.want)
		}
		if tc.then == "" {
			continue
		}
		if reply := string(lc.Serve([]byte(tc.then))); !strings.Contains(reply, CodeFenced) || strings.Contains(reply, tc.wantNot) {
			t.Errorf("%s after a bare DEMOTE answered %s, want fenced without a leader hint", tc.then, reply)
		}
	}
}
