package repl

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/wal"
)

// modelApplier is a map-backed Applier that enforces the ordering
// contract the Follower promises: contiguous window sequences, with
// Bootstrap the only way to jump (or regress).
type modelApplier struct {
	mu         sync.Mutex
	seq        uint64
	term       uint64
	state      map[string]geom.Point
	applies    int
	bootstraps int
	violation  string
}

func newModelApplier() *modelApplier {
	return &modelApplier{state: make(map[string]geom.Point)}
}

func (m *modelApplier) AppliedSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

func (m *modelApplier) Term() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.term
}

func (m *modelApplier) ApplyWindow(seq uint64, ops []wal.Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if seq != m.seq+1 {
		m.violation = fmt.Sprintf("ApplyWindow(%d) after seq %d", seq, m.seq)
		return fmt.Errorf("model: %s", m.violation)
	}
	for _, o := range ops {
		if o.Del {
			delete(m.state, o.ID)
		} else {
			m.state[strings.Clone(o.ID)] = o.P // o.ID views the Follower's buffer
		}
	}
	m.seq = seq
	m.applies++
	return nil
}

// Bootstrap reads the whole image and decodes it with the WAL's snapshot
// decoder, refusing one at another seq or term, before it changes
// anything.
func (m *modelApplier) Bootstrap(seq, term uint64, snap io.Reader) error {
	img, err := io.ReadAll(snap)
	if err != nil {
		return err
	}
	state := make(map[string]geom.Point)
	rec, err := wal.ReadSnapshot(bytes.NewReader(img), func(o wal.Op) {
		state[strings.Clone(o.ID)] = o.P
	})
	if err != nil {
		return err
	}
	if rec.SnapshotSeq != seq || rec.Term != term {
		return fmt.Errorf("model: snapshot at seq %d, term %d; want seq %d, term %d", rec.SnapshotSeq, rec.Term, seq, term)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = state
	m.seq = seq
	m.term = term
	m.bootstraps++
	return nil
}

func (m *modelApplier) snapshot() (uint64, map[string]geom.Point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq, maps.Clone(m.state)
}

func (m *modelApplier) violationStr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.violation
}

func (m *modelApplier) counts() (applies, bootstraps int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applies, m.bootstraps
}

// leaderModel plays the Collection's role on the leader side: a state
// map whose mutations publish one window each through the hub, with the
// snapshot capture consistent with the hub head (the mutex stands in
// for the flush lock).
type leaderModel struct {
	mu    sync.Mutex
	state map[string]geom.Point
	hub   *Hub
	term  uint64 // what the leader's Term reports, set before it serves
}

// publish hands the hub one window the way the service's journal hook
// does: as the record payload the WAL framed for it.
func publish(h *Hub, seq uint64, ops []wal.Op) {
	h.Publish(seq, wal.EncodeWindowPayload(nil, seq, ops))
}

func newLeaderModel(retainWindows, retainBytes int) *leaderModel {
	return &leaderModel{
		state: make(map[string]geom.Point),
		hub:   NewHub(0, retainWindows, retainBytes),
	}
}

func (lm *leaderModel) commit(ops []wal.Op) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for _, o := range ops {
		if o.Del {
			delete(lm.state, o.ID)
		} else {
			lm.state[o.ID] = o.P
		}
	}
	publish(lm.hub, lm.hub.LastSeq()+1, ops)
}

func (lm *leaderModel) snapshot() (uint64, []byte, error) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	var b bytes.Buffer
	seq := lm.hub.LastSeq()
	err := wal.WriteSnapshot(&b, lm.term, seq, len(lm.state), maps.All(lm.state))
	return seq, b.Bytes(), err
}

func (lm *leaderModel) Term() uint64 { return lm.term }

func startTestLeader(t *testing.T, lm *leaderModel) (*Leader, string) {
	t.Helper()
	l := NewLeader(LeaderOptions{
		Hub:      lm.hub,
		Snapshot: lm.snapshot,
		Term:     lm.Term,
		Logf:     t.Logf,
	})
	l.pingInterval = 20 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Serve(ln)
	t.Cleanup(l.Close)
	return l, ln.Addr().String()
}

func startTestFollower(t *testing.T, addr, id string, app Applier) *Follower {
	t.Helper()
	f := NewFollower(app, FollowerOptions{
		Addr: addr,
		ID:   id,
		Logf: t.Logf,
	})
	f.backoffMin, f.backoffMax = 5*time.Millisecond, 50*time.Millisecond
	f.Start()
	t.Cleanup(f.Stop)
	return f
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func checkConverged(t *testing.T, lm *leaderModel, app *modelApplier) {
	t.Helper()
	waitFor(t, "follower convergence", func() bool {
		seq, _ := app.snapshot()
		return seq == lm.hub.LastSeq()
	})
	_, got := app.snapshot()
	lm.mu.Lock()
	want := maps.Clone(lm.state)
	lm.mu.Unlock()
	if !maps.Equal(got, want) {
		t.Fatalf("follower state %v, leader %v", got, want)
	}
	if v := app.violationStr(); v != "" {
		t.Fatalf("ordering violation: %s", v)
	}
}

// journalFirstApplier is the service's applier in miniature: its
// position is its journal's, which moves BEFORE the window it journals
// is applied (write-ahead), and the apply itself can be held open.
type journalFirstApplier struct {
	*modelApplier
	journaled atomic.Uint64
	entered   chan uint64   // receives seq once the window is journaled
	release   chan struct{} // the apply half waits here
}

func (a *journalFirstApplier) AppliedSeq() uint64 { return a.journaled.Load() }

func (a *journalFirstApplier) ApplyWindow(seq uint64, ops []wal.Op) error {
	a.journaled.Store(seq)
	a.entered <- seq
	<-a.release
	return a.modelApplier.ApplyWindow(seq, ops)
}

// TestStatusTrailsVisibility pins the contract behind "wait for
// applied_seq == the leader's head, then read the follower": the
// position a follower reports must never run ahead of what its reads can
// see. The applier's journal position does — it advances before the
// window is applied — so reporting it would make a follower look caught
// up one window early (cmd/psid's chaos oracles wait exactly this way).
func TestStatusTrailsVisibility(t *testing.T) {
	lm := newLeaderModel(0, 0)
	_, addr := startTestLeader(t, lm)
	app := &journalFirstApplier{modelApplier: newModelApplier(), entered: make(chan uint64), release: make(chan struct{})}
	f := startTestFollower(t, addr, "f1", app)
	release := sync.OnceFunc(func() { close(app.release) })
	t.Cleanup(release) // before the follower's Stop, which waits for the apply
	waitFor(t, "session", func() bool { return f.Status().Connected })

	lm.commit([]wal.Op{{ID: "a", P: geom.Pt2(1, 1)}})
	if seq := <-app.entered; seq != 1 {
		t.Fatalf("first window applied under seq %d, want 1", seq)
	}
	// Journaled, not yet applied: nothing of window 1 is readable.
	if st := f.Status(); st.AppliedSeq != 0 {
		t.Fatalf("Status reports applied_seq %d while window 1 is still being applied (journal at %d)",
			st.AppliedSeq, app.AppliedSeq())
	}
	if _, state := app.snapshot(); len(state) != 0 {
		t.Fatalf("model applied %v before release", state)
	}
	release()
	waitFor(t, "window 1 reported applied", func() bool { return f.Status().AppliedSeq == 1 })
	if _, state := app.snapshot(); state["a"] != geom.Pt2(1, 1) {
		t.Fatalf("applied_seq 1 reported, state is %v", state)
	}
}

// TestTailStreaming is the happy path: a follower connected from seq 0
// receives every committed window in order, with no bootstrap.
func TestTailStreaming(t *testing.T) {
	lm := newLeaderModel(0, 0)
	leader, addr := startTestLeader(t, lm)
	app := newModelApplier()
	f := startTestFollower(t, addr, "f1", app)

	waitFor(t, "session", func() bool { return f.Status().Connected })
	for i := 0; i < 50; i++ {
		lm.commit([]wal.Op{
			{ID: fmt.Sprintf("obj-%d", i%10), P: geom.Pt2(int64(i), int64(-i))},
		})
	}
	lm.commit([]wal.Op{{ID: "obj-3", Del: true}})
	checkConverged(t, lm, app)
	if _, boots := app.counts(); boots != 0 {
		t.Fatalf("tail-only follower bootstrapped %d times", boots)
	}
	st := f.Status()
	if st.Duplicates != 0 {
		t.Fatalf("follower skipped %d duplicates on a clean stream", st.Duplicates)
	}
	// Acks drain leader-side lag to zero.
	waitFor(t, "leader lag", func() bool {
		ls := leader.Stats()
		return len(ls.Followers) == 1 && ls.Followers[0].LagWindows == 0
	})
}

// TestSnapshotBootstrap forces the bootstrap path: the hub retains only
// 2 windows, and the follower connects after 20 commits, so its resume
// point is long evicted.
func TestSnapshotBootstrap(t *testing.T) {
	lm := newLeaderModel(2, 0)
	leader, addr := startTestLeader(t, lm)
	for i := 0; i < 20; i++ {
		lm.commit([]wal.Op{{ID: fmt.Sprintf("obj-%d", i), P: geom.Pt2(int64(i), 7)}})
	}
	app := newModelApplier()
	startTestFollower(t, addr, "f1", app)
	checkConverged(t, lm, app)
	if _, boots := app.counts(); boots != 1 {
		t.Fatalf("follower bootstrapped %d times, want 1", boots)
	}
	if got := leader.Stats().SnapshotsSent; got != 1 {
		t.Fatalf("leader sent %d snapshots, want 1", got)
	}
	// Post-bootstrap commits ride the tail.
	lm.commit([]wal.Op{{ID: "post", P: geom.Pt2(1, 2)}})
	checkConverged(t, lm, app)
	if _, boots := app.counts(); boots != 1 {
		t.Fatalf("post-bootstrap windows re-bootstrapped (%d)", boots)
	}
}

// TestResumeFromSeq covers the restart contract: a follower that
// vanishes and returns with its applied seq resumes from the retained
// tail — no bootstrap, no duplicate applies, no gaps.
func TestResumeFromSeq(t *testing.T) {
	lm := newLeaderModel(0, 0)
	_, addr := startTestLeader(t, lm)
	app := newModelApplier()
	f := startTestFollower(t, addr, "f1", app)
	for i := 0; i < 10; i++ {
		lm.commit([]wal.Op{{ID: "a", P: geom.Pt2(int64(i), 0)}})
	}
	checkConverged(t, lm, app)
	f.Stop()

	// Windows committed while the follower is away.
	for i := 10; i < 25; i++ {
		lm.commit([]wal.Op{{ID: "b", P: geom.Pt2(int64(i), 1)}})
	}
	f2 := startTestFollower(t, addr, "f1", app)
	checkConverged(t, lm, app)
	st := f2.Status()
	applies, boots := app.counts()
	if boots != 0 || st.Duplicates != 0 {
		t.Fatalf("resume took %d bootstraps, %d duplicates; want 0/0", boots, st.Duplicates)
	}
	if applies != 25 {
		t.Fatalf("follower applied %d windows, want 25", applies)
	}
}

// TestEmptyLeaderBootstrap pins the latent-gap fix the resume handshake
// needs: following an empty leader (no snapshot, empty log, head 0)
// must succeed at seq 0 without error — and a follower AHEAD of that
// empty leader must be re-bootstrapped down to zero, not left serving
// stale state.
func TestEmptyLeaderBootstrap(t *testing.T) {
	lm := newLeaderModel(0, 0)
	_, addr := startTestLeader(t, lm)
	app := newModelApplier()
	f := startTestFollower(t, addr, "empty-start", app)
	waitFor(t, "session", func() bool { return f.Status().Connected })
	if st := f.Status(); st.LeaderSeq != 0 || st.AppliedSeq != 0 || st.LagWindows != 0 {
		t.Fatalf("empty-leader status: %+v", st)
	}
	if _, boots := app.counts(); boots != 0 {
		t.Fatalf("empty leader forced %d bootstraps on an empty follower", boots)
	}
	// First commits flow as the plain tail.
	lm.commit([]wal.Op{{ID: "first", P: geom.Pt2(1, 1)}})
	checkConverged(t, lm, app)
	f.Stop()

	// A follower ahead of the leader (here: a fresh empty leader while
	// the follower kept state from the old one) must regress via
	// snapshot, down to an empty state at seq 0.
	lm2 := newLeaderModel(0, 0)
	_, addr2 := startTestLeader(t, lm2)
	f2 := startTestFollower(t, addr2, "ahead", app)
	waitFor(t, "re-bootstrap", func() bool { _, boots := app.counts(); return boots == 1 })
	seq, state := app.snapshot()
	if seq != 0 || len(state) != 0 {
		t.Fatalf("after wiped-leader re-bootstrap: seq %d, %d objects; want 0, 0", seq, len(state))
	}
	if st := f2.Status(); st.LagWindows != 0 {
		t.Fatalf("lag after re-bootstrap: %+v", st)
	}
}

// TestHubTailFrom pins the snapshot-or-tail decision logic.
func TestHubTailFrom(t *testing.T) {
	h := NewHub(5, 3, 0)
	if _, _, gap := h.TailFrom(5, nil); gap {
		t.Fatal("caught-up follower on a fresh hub reported a gap")
	}
	if _, _, gap := h.TailFrom(3, nil); !gap {
		t.Fatal("behind-recovery follower on an empty ring must need a snapshot")
	}
	if _, _, gap := h.TailFrom(9, nil); !gap {
		t.Fatal("follower ahead of the head must need a snapshot")
	}
	for seq := uint64(6); seq <= 10; seq++ {
		publish(h, seq, []wal.Op{{ID: "x", P: geom.Pt2(int64(seq), 0)}})
	}
	// Retention 3: ring holds 8, 9, 10.
	wins, last, gap := h.TailFrom(7, nil)
	if gap || last != 10 || len(wins) != 3 {
		t.Fatalf("TailFrom(7): %d wins, last %d, gap %t", len(wins), last, gap)
	}
	seq, _, err := wal.DecodeWindowPayload(wins[0], nil)
	if err != nil || seq != 8 {
		t.Fatalf("first tail window decodes to seq %d (%v), want 8", seq, err)
	}
	if _, _, gap := h.TailFrom(6, nil); !gap {
		t.Fatal("evicted resume point must report a gap")
	}
	if wins, _, gap := h.TailFrom(10, nil); gap || len(wins) != 0 {
		t.Fatalf("caught-up TailFrom: %d wins, gap %t", len(wins), gap)
	}
	// The hub keeps its own copy: a publisher hands it the WAL's encode
	// buffer, which the next append overwrites.
	buf := wal.EncodeWindowPayload(nil, 11, []wal.Op{{ID: "y", P: geom.Pt2(1, 1)}})
	want := bytes.Clone(buf)
	h.Publish(11, buf)
	clear(buf)
	if wins, _, _ := h.TailFrom(10, nil); len(wins) != 1 || !bytes.Equal(wins[0], want) {
		t.Fatal("the hub retained the publisher's buffer instead of a copy")
	}
}

// TestHubSumAt: the hub answers the checksum of exactly the windows it
// retains, computed over the payload it streams.
func TestHubSumAt(t *testing.T) {
	h := NewHub(5, 3, 0)
	if _, ok := h.SumAt(5); ok {
		t.Fatal("an empty ring answered a checksum for its recovered head")
	}
	for seq := uint64(6); seq <= 10; seq++ {
		publish(h, seq, []wal.Op{{ID: "x", P: geom.Pt2(int64(seq), 0)}})
	}
	wins, _, _ := h.TailFrom(7, nil) // the ring holds 8, 9, 10
	for i, seq := range []uint64{8, 9, 10} {
		if sum, ok := h.SumAt(seq); !ok || sum != crc32.ChecksumIEEE(wins[i]) {
			t.Fatalf("SumAt(%d) = %#x, %t; want the checksum of the retained window", seq, sum, ok)
		}
	}
	for _, seq := range []uint64{0, 7, 11} {
		if _, ok := h.SumAt(seq); ok {
			t.Fatalf("SumAt(%d) answered for a window the ring does not hold", seq)
		}
	}
}

// TestFollowRoundTrip pins the FOLLOW encoding with and without the
// window checksum, and that nothing else may trail the identity.
func TestFollowRoundTrip(t *testing.T) {
	for _, fl := range []follow{
		{seq: 7, term: 2, id: "f1"},
		{seq: 7, term: 2, id: "f1", sum: 0xdeadbeef, hasSum: true},
		{seq: 0, term: 0, id: "", sum: 0, hasSum: true},
	} {
		got, err := parseFollow(followPayload(nil, fl))
		if err != nil || got != fl {
			t.Fatalf("round trip of %+v: %+v, %v", fl, got, err)
		}
	}
	p := followPayload(nil, follow{seq: 7, term: 2, id: "f1"})
	for _, extra := range []int{1, 3, 5} {
		if _, err := parseFollow(append(bytes.Clone(p), make([]byte, extra)...)); err == nil {
			t.Fatalf("FOLLOW with %d trailing bytes decoded without error", extra)
		}
	}
	if _, err := parseFollow(p[:len(p)-1]); err == nil {
		t.Fatal("FOLLOW with a torn identity decoded without error")
	}
}

// TestDivergedResumeForcesBootstrap: a leader rebuilt from an empty WAL
// on the same term reuses sequence numbers. A follower that reconnects
// after the new history passed its seq must be re-bootstrapped, not
// resumed on windows that never followed its state — while a follower
// reconnecting to the history it came from still resumes for free.
func TestDivergedResumeForcesBootstrap(t *testing.T) {
	lm := newLeaderModel(0, 0)
	_, addr := startTestLeader(t, lm)
	app := newModelApplier()
	f := startTestFollower(t, addr, "f1", app)
	for i := 0; i < 5; i++ {
		lm.commit([]wal.Op{{ID: "old", P: geom.Pt2(int64(i), 0)}})
	}
	checkConverged(t, lm, app)

	// The same history: sever the session, commit more, resume.
	f.SetAddr(addr)
	for i := 5; i < 8; i++ {
		lm.commit([]wal.Op{{ID: "old", P: geom.Pt2(int64(i), 0)}})
	}
	checkConverged(t, lm, app)
	if _, boots := app.counts(); boots != 0 || f.Status().Duplicates != 0 {
		t.Fatalf("resume on the same history: %d bootstraps, %+v", boots, f.Status())
	}

	// A different history on the same term, already past the follower's
	// seq 8 when it arrives.
	lm2 := newLeaderModel(0, 0)
	for i := 0; i < 12; i++ {
		lm2.commit([]wal.Op{{ID: fmt.Sprintf("new-%d", i), P: geom.Pt2(int64(i), 1)}})
	}
	_, addr2 := startTestLeader(t, lm2)
	f.SetAddr(addr2)
	waitFor(t, "re-bootstrap onto the new history", func() bool { _, boots := app.counts(); return boots == 1 })
	checkConverged(t, lm2, app)
	if st := f.Status(); st.Duplicates != 0 {
		t.Fatalf("diverged resume: %+v", st)
	}
}

// TestHubByteRetention: the byte bound evicts like the window bound but
// always keeps the newest window.
func TestHubByteRetention(t *testing.T) {
	h := NewHub(0, 1<<20, 64)
	big := []wal.Op{{ID: "padding-padding-padding", P: geom.Pt2(1, 2)}}
	for seq := uint64(1); seq <= 10; seq++ {
		publish(h, seq, big)
	}
	windows, bytes, last := h.Stats()
	if last != 10 || windows == 0 || bytes > 64+len(big[0].ID)+16 {
		t.Fatalf("byte retention: %d windows, %d bytes, last %d", windows, bytes, last)
	}
	if windows >= 10 {
		t.Fatalf("byte bound evicted nothing (%d windows)", windows)
	}
}

// TestFrameRoundTrip pins the frame encoding and its rejection paths.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello frame")
	b := appendFrame(nil, fmWindow, payload)
	typ, got, _, err := readFrame(bytes.NewReader(b), 1<<10, nil)
	if err != nil || typ != fmWindow || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: typ %d, payload %q, err %v", typ, got, err)
	}

	for name, mut := range map[string]func([]byte) []byte{
		"zero type":     func(b []byte) []byte { b[0] = 0; return b },
		"unknown type":  func(b []byte) []byte { b[0] = fmMax; return b },
		"crc flip":      func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"torn payload":  func(b []byte) []byte { return b[:len(b)-2] },
		"torn header":   func(b []byte) []byte { return b[:4] },
		"length beyond": func(b []byte) []byte { b[1], b[2] = 0xff, 0xff; return b },
	} {
		bad := mut(append([]byte(nil), b...))
		if _, _, _, err := readFrame(bytes.NewReader(bad), 1<<10, nil); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}
}

// TestStreamRejectsGap: a window skipping ahead severs the session
// instead of applying out of order.
func TestStreamRejectsGap(t *testing.T) {
	app := newModelApplier()
	f := NewFollower(app, FollowerOptions{Addr: "unused"})
	var s []byte
	s = append(s, Magic...)
	s = appendFrame(s, fmHello, seqTermPayload(nil, 3, 0))
	s = appendFrame(s, fmWindow, windowPayload(nil, 0, wal.EncodeWindowPayload(nil, 1, []wal.Op{{ID: "a", P: geom.Pt2(1, 1)}})))
	s = appendFrame(s, fmWindow, windowPayload(nil, 0, wal.EncodeWindowPayload(nil, 3, []wal.Op{{ID: "b", P: geom.Pt2(2, 2)}})))
	err := f.stream(bytes.NewReader(s), nopWriter{})
	if err == nil {
		t.Fatal("gapped stream consumed without error")
	}
	if app.applies != 1 || app.violation != "" {
		t.Fatalf("gap handling: %d applies, violation %q", app.applies, app.violation)
	}
}

// TestStreamSkipsDuplicates: a window at or below the applied seq is
// dropped and counted, never re-applied.
func TestStreamSkipsDuplicates(t *testing.T) {
	app := newModelApplier()
	f := NewFollower(app, FollowerOptions{Addr: "unused"})
	w1 := windowPayload(nil, 0, wal.EncodeWindowPayload(nil, 1, []wal.Op{{ID: "a", P: geom.Pt2(1, 1)}}))
	var s []byte
	s = append(s, Magic...)
	s = appendFrame(s, fmHello, seqTermPayload(nil, 1, 0))
	s = appendFrame(s, fmWindow, w1)
	s = appendFrame(s, fmWindow, w1) // regression: same seq again
	s = appendFrame(s, fmWindow, windowPayload(nil, 0, wal.EncodeWindowPayload(nil, 2, []wal.Op{{ID: "b", P: geom.Pt2(2, 2)}})))
	if err := f.stream(bytes.NewReader(s), nopWriter{}); err != io.EOF {
		t.Fatalf("stream exit: %v, want EOF", err)
	}
	if app.applies != 2 || f.duplicates.Load() != 1 {
		t.Fatalf("duplicate handling: %d applies, %d duplicates", app.applies, f.duplicates.Load())
	}
	if _, state := app.snapshot(); len(state) != 2 {
		t.Fatalf("state after duplicate skip: %v", state)
	}
}

// TestStreamRejectsLowerTermWindow is the fencing contract at frame
// granularity: a WINDOW frame whose term differs from the session's
// HELLO term severs the session before anything applies.
func TestStreamRejectsLowerTermWindow(t *testing.T) {
	app := newModelApplier()
	app.term = 5 // this replica has adopted term 5
	f := NewFollower(app, FollowerOptions{Addr: "unused"})
	var s []byte
	s = append(s, Magic...)
	s = appendFrame(s, fmHello, seqTermPayload(nil, 0, 5))
	s = appendFrame(s, fmWindow, windowPayload(nil, 3, // a stale timeline's window
		wal.EncodeWindowPayload(nil, 1, []wal.Op{{ID: "a", P: geom.Pt2(1, 1)}})))
	err := f.stream(bytes.NewReader(s), nopWriter{})
	if err == nil {
		t.Fatal("lower-term window consumed without error")
	}
	if app.applies != 0 {
		t.Fatalf("lower-term window applied (%d applies)", app.applies)
	}
}

// TestStreamRejectsStaleLeaderHello: a session whose HELLO carries a
// term below the replica's adopted term is refused outright.
func TestStreamRejectsStaleLeaderHello(t *testing.T) {
	app := newModelApplier()
	app.term = 5
	f := NewFollower(app, FollowerOptions{Addr: "unused"})
	var s []byte
	s = append(s, Magic...)
	s = appendFrame(s, fmHello, seqTermPayload(nil, 9, 4))
	s = appendFrame(s, fmWindow, windowPayload(nil, 4,
		wal.EncodeWindowPayload(nil, 1, []wal.Op{{ID: "a", P: geom.Pt2(1, 1)}})))
	err := f.stream(bytes.NewReader(s), nopWriter{})
	if err == nil {
		t.Fatal("stale-term HELLO accepted")
	}
	if app.applies != 0 || f.connected.Load() {
		t.Fatalf("stale leader session left state: %d applies, connected %t", app.applies, f.connected.Load())
	}
}

// TestLeaderDeposedByHigherTermFollow: a FOLLOW handshake carrying a
// higher term than the leader's refuses the session and fires
// OnDeposed — the signal the service uses to fence itself.
func TestLeaderDeposedByHigherTermFollow(t *testing.T) {
	lm := newLeaderModel(0, 0)
	deposed := make(chan uint64, 1)
	l := NewLeader(LeaderOptions{
		Hub:       lm.hub,
		Snapshot:  lm.snapshot,
		Term:      func() uint64 { return 1 },
		OnDeposed: func(term uint64) { deposed <- term },
		Logf:      t.Logf,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Serve(ln)
	t.Cleanup(l.Close)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hs := append([]byte(nil), Magic...)
	hs = appendFrame(hs, fmFollow, followPayload(nil, follow{term: 2, id: "newer"}))
	if _, err := conn.Write(hs); err != nil {
		t.Fatal(err)
	}
	select {
	case term := <-deposed:
		if term != 2 {
			t.Fatalf("OnDeposed(%d), want 2", term)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDeposed never fired")
	}
	// The refused session gets no HELLO: the conn reaches EOF without a
	// leader magic.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("deposed leader wrote %d bytes (err %v), want bare EOF", n, err)
	}
}

// TestCrossTermResumeForcesBootstrap: a follower whose seq is resumable
// but whose term is older must be re-bootstrapped — cross-term
// incremental resume would mix timelines.
func TestCrossTermResumeForcesBootstrap(t *testing.T) {
	lm := newLeaderModel(0, 0)
	lm.term = 3
	deposed := make(chan uint64, 1)
	l := NewLeader(LeaderOptions{
		Hub:       lm.hub,
		Snapshot:  lm.snapshot,
		Term:      lm.Term,
		OnDeposed: func(term uint64) { deposed <- term },
		Logf:      t.Logf,
	})
	l.pingInterval = 20 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Serve(ln)
	t.Cleanup(l.Close)

	for i := 0; i < 5; i++ {
		lm.commit([]wal.Op{{ID: fmt.Sprintf("obj-%d", i), P: geom.Pt2(int64(i), 0)}})
	}
	app := newModelApplier()
	app.seq = 3 // resumable seq, but from term 1's timeline
	app.term = 1
	startTestFollower(t, ln.Addr().String(), "old-term", app)
	waitFor(t, "cross-term bootstrap", func() bool { _, boots := app.counts(); return boots == 1 })
	checkConverged(t, lm, app)
	if got := app.Term(); got != 3 {
		t.Fatalf("follower adopted term %d, want 3", got)
	}
	select {
	case term := <-deposed:
		t.Fatalf("older-term follower deposed the leader (term %d)", term)
	default:
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
